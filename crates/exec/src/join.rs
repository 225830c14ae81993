//! Columnar join algorithms.
//!
//! The §2.2 experiment compares a hash join and a sort+merge join in Awk
//! against the same joins inside the DBMS. These are the DBMS-side
//! implementations, operating directly on loaded key columns and producing
//! position pairs for later payload gathering (late materialisation).
//!
//! Every integer hash join — serial, warm morsel-parallel and fused cold —
//! builds the same [`JoinTables`]: `(key, row)` entries radix-partitioned by
//! key hash, one flat chained `JoinTable` per partition. The serial join
//! is its one-partition case.

use std::collections::HashMap;
use std::sync::Mutex;

use nodb_types::resource::charge_current;
use nodb_types::{run_morsels, ColumnData, Error, Result};

use crate::columnar::GroupKey;

/// One join-build entry: the key and its build-side row.
pub type JoinEntry = (i64, usize);

/// End-of-chain marker in a [`JoinTable`]'s `heads` and `next` arrays.
const NIL: u32 = u32::MAX;

/// Fibonacci-multiplicative hash of a join key. Partitioning consumes its
/// top bits ([`partition_of`]); a partition's table takes its bucket from
/// the bits just below them, so keys sharing a partition still spread over
/// every bucket of its table.
#[inline]
fn key_hash(key: i64) -> u64 {
    (key as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Partition of `key` among `p` (a power of two) partitions: the top
/// `log2 p` bits of its hash. One partition takes no bits.
#[inline]
fn partition_of(key: i64, p: usize) -> usize {
    key_hash(key)
        .checked_shr(64 - p.trailing_zeros())
        .unwrap_or(0) as usize
}

/// Bucket count of a [`JoinTable`] over `entries` entries: the next power
/// of two (load factor at most one), at least two. Entry indices are
/// `u32` with `u32::MAX` reserved as the end-of-chain marker, so a
/// partition of `u32::MAX` or more entries is refused with a typed error
/// instead of wrapping.
pub(crate) fn join_table_buckets(entries: usize) -> Result<usize> {
    if entries >= NIL as usize {
        return Err(Error::ResourceExhausted(format!(
            "join partition of {entries} entries exceeds the {} entry limit",
            NIL - 1
        )));
    }
    Ok(entries.next_power_of_two().max(2))
}

/// Heap bytes a [`JoinTable`] holds: its entries, one `next` link per
/// entry and one `heads` slot per bucket.
fn join_table_bytes(entries: usize, buckets: usize) -> usize {
    entries * (std::mem::size_of::<JoinEntry>() + std::mem::size_of::<u32>())
        + buckets * std::mem::size_of::<u32>()
}

/// A flat chained hash table over one partition's `(key, row)` entries.
/// The entries stay in one vector; `heads` holds each bucket's first
/// entry index and `next` chains the entries of a bucket, both as `u32`
/// — no allocation per key. Chains are linked back to front, so a probe
/// visits a key's entries in entry order.
#[derive(Debug)]
pub(crate) struct JoinTable {
    entries: Vec<JoinEntry>,
    heads: Vec<u32>,
    next: Vec<u32>,
    /// Hash bits consumed by partitioning, skipped when picking a bucket.
    part_bits: u32,
    /// log2 of `heads.len()`.
    bucket_bits: u32,
}

impl JoinTable {
    /// Build the table of one of `partitions` partitions, taking ownership
    /// of its entries. Charges the table's bytes against the ambient
    /// memory budget.
    fn build(entries: Vec<JoinEntry>, partitions: usize) -> Result<JoinTable> {
        let buckets = join_table_buckets(entries.len())?;
        charge_current(join_table_bytes(entries.len(), buckets))?;
        let mut t = JoinTable {
            heads: vec![NIL; buckets],
            next: vec![NIL; entries.len()],
            entries,
            part_bits: partitions.trailing_zeros(),
            bucket_bits: buckets.trailing_zeros(),
        };
        for e in (0..t.entries.len()).rev() {
            let b = t.bucket(t.entries[e].0);
            t.next[e] = t.heads[b];
            t.heads[b] = e as u32;
        }
        Ok(t)
    }

    #[inline]
    fn bucket(&self, key: i64) -> usize {
        ((key_hash(key) << self.part_bits) >> (64 - self.bucket_bits)) as usize
    }

    /// Call `emit(row)` for every entry with `key`, in entry order.
    #[inline]
    fn probe(&self, key: i64, mut emit: impl FnMut(usize)) {
        let mut e = self.heads[self.bucket(key)];
        while e != NIL {
            let (k, row) = self.entries[e as usize];
            if k == key {
                emit(row);
            }
            e = self.next[e as usize];
        }
    }
}

/// An `Int64` key column viewed as its values plus optional null mask.
#[derive(Clone, Copy)]
pub(crate) struct IntKeys<'a> {
    values: &'a [i64],
    nulls: Option<&'a [bool]>,
}

impl<'a> IntKeys<'a> {
    /// The view of an `Int64` column; `None` for any other type.
    pub(crate) fn of(col: &'a ColumnData) -> Option<Self> {
        match col {
            ColumnData::Int64 { values, nulls } => Some(IntKeys {
                values,
                nulls: nulls.as_deref(),
            }),
            _ => None,
        }
    }

    /// The key at row `i`; `None` for NULL, which never matches.
    #[inline]
    fn get(&self, i: usize) -> Option<i64> {
        match self.nulls {
            Some(m) if m[i] => None,
            _ => Some(self.values[i]),
        }
    }

    /// Hash-partition the non-NULL keys at `rows` into `(key, first_row +
    /// row)` entries, `partitions` (a power of two) vectors. Ascending
    /// `rows` leave every partition's rows ascending.
    pub(crate) fn partition(
        &self,
        rows: impl ExactSizeIterator<Item = usize>,
        first_row: usize,
        partitions: usize,
    ) -> Vec<Vec<JoinEntry>> {
        let cap = rows.len() / partitions;
        let mut parts: Vec<Vec<JoinEntry>> =
            (0..partitions).map(|_| Vec::with_capacity(cap)).collect();
        for i in rows {
            if let Some(k) = self.get(i) {
                parts[partition_of(k, partitions)].push((k, first_row + i));
            }
        }
        parts
    }
}

/// The partitioned build side of an integer hash join: one flat chained
/// `JoinTable` per partition, partition `p` holding the keys with
/// `partition_of(key, partitions) == p`.
#[derive(Debug)]
pub struct JoinTables {
    tables: Vec<JoinTable>,
}

impl JoinTables {
    /// Build one table per partition from per-morsel partitioned entries
    /// (`morsel_parts[m][p]`, morsels in index order, `partitions` a
    /// power of two), on up to `threads` stealing workers. Each
    /// partition's pieces are concatenated in morsel order on its worker
    /// and moved into its table, so rows stay ascending whenever every
    /// morsel's rows were.
    pub fn build(
        morsel_parts: Vec<Vec<Vec<JoinEntry>>>,
        partitions: usize,
        threads: usize,
    ) -> Result<JoinTables> {
        debug_assert!(partitions.is_power_of_two());
        let mut pieces: Vec<Vec<Vec<JoinEntry>>> = (0..partitions)
            .map(|_| Vec::with_capacity(morsel_parts.len()))
            .collect();
        for parts in morsel_parts {
            for (pid, entries) in parts.into_iter().enumerate() {
                pieces[pid].push(entries);
            }
        }
        let pieces: Vec<Mutex<Vec<Vec<JoinEntry>>>> = pieces.into_iter().map(Mutex::new).collect();
        let build = |pid: usize| {
            let mut mine = std::mem::take(&mut *pieces[pid].lock().expect("partition lock"));
            let entries = if mine.len() == 1 {
                mine.pop().expect("one piece")
            } else {
                mine.concat()
            };
            JoinTable::build(entries, partitions)
        };
        // One worker builds inline, so a serial join adds no morsels to
        // the query profile.
        let tables = if threads <= 1 {
            (0..partitions).map(build).collect::<Result<_>>()?
        } else {
            run_morsels(partitions, 1, threads, |_index, pid, _hi| build(pid))?
        };
        Ok(JoinTables { tables })
    }

    /// Append `(build row, first_row + j)` for every match of the non-NULL
    /// probe keys at rows `rows`: row order, ascending build row per key
    /// when the build rows were ascending.
    pub(crate) fn probe_into(
        &self,
        keys: IntKeys,
        rows: impl Iterator<Item = usize>,
        first_row: usize,
        out: &mut Vec<(usize, usize)>,
    ) {
        let p = self.tables.len();
        for j in rows {
            if let Some(k) = keys.get(j) {
                self.tables[partition_of(k, p)].probe(k, |i| out.push((i, first_row + j)));
            }
        }
    }

    /// Probe one probe-side morsel against the built tables, emitting
    /// `(build row, probe row)` pairs in absolute coordinates. NULL (and
    /// non-integer) keys never match. Concatenating per-morsel outputs in
    /// morsel order reproduces the serial pair order exactly: probe-scan
    /// order, ascending build position per match.
    pub fn probe_morsel(
        &self,
        keys: &ColumnData,
        local_positions: &[usize],
        first_row: usize,
    ) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        if let Some(keys) = IntKeys::of(keys) {
            self.probe_into(keys, local_positions.iter().copied(), first_row, &mut out);
        }
        out
    }
}

/// Inner equi-join by hashing the (smaller) left key column. Returns
/// matching `(left position, right position)` pairs in right-scan order,
/// ascending left position per match. NULL keys never match. Integer
/// keys build a one-partition [`JoinTables`]; other types hash boxed
/// values.
pub fn hash_join_positions(left: &ColumnData, right: &ColumnData) -> Result<Vec<(usize, usize)>> {
    if let (Some(lk), Some(rk)) = (IntKeys::of(left), IntKeys::of(right)) {
        let tables = JoinTables::build(vec![lk.partition(0..left.len(), 0, 1)], 1, 1)?;
        let mut out = Vec::new();
        tables.probe_into(rk, 0..right.len(), 0, &mut out);
        return Ok(out);
    }
    let mut table: HashMap<GroupKey, Vec<usize>> = HashMap::with_capacity(left.len());
    for i in 0..left.len() {
        let v = left.get(i);
        if v.is_null() {
            continue;
        }
        table.entry(GroupKey(vec![v])).or_default().push(i);
    }
    let mut out = Vec::new();
    for j in 0..right.len() {
        let v = right.get(j);
        if v.is_null() {
            continue;
        }
        if let Some(matches) = table.get(&GroupKey(vec![v])) {
            for &i in matches {
                out.push((i, j));
            }
        }
    }
    Ok(out)
}

/// Inner equi-join by sorting both key columns and merging. Produces the
/// same pair multiset as [`hash_join_positions`] (order differs).
pub fn merge_join_positions(left: &ColumnData, right: &ColumnData) -> Result<Vec<(usize, usize)>> {
    let mut li: Vec<usize> = (0..left.len()).filter(|&i| !left.is_null(i)).collect();
    let mut ri: Vec<usize> = (0..right.len()).filter(|&j| !right.is_null(j)).collect();
    li.sort_by(|&a, &b| left.get(a).total_cmp(&left.get(b)));
    ri.sort_by(|&a, &b| right.get(a).total_cmp(&right.get(b)));
    let mut out = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    while i < li.len() && j < ri.len() {
        let lv = left.get(li[i]);
        let rv = right.get(ri[j]);
        match lv.total_cmp(&rv) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                // Emit the cross product of the equal runs.
                let mut i_end = i;
                while i_end < li.len() && left.get(li[i_end]).total_cmp(&lv).is_eq() {
                    i_end += 1;
                }
                let mut j_end = j;
                while j_end < ri.len() && right.get(ri[j_end]).total_cmp(&rv).is_eq() {
                    j_end += 1;
                }
                for &a in &li[i..i_end] {
                    for &b in &ri[j..j_end] {
                        out.push((a, b));
                    }
                }
                i = i_end;
                j = j_end;
            }
        }
    }
    Ok(out)
}

/// Gather payload columns through join position pairs: returns
/// `(left gather indices, right gather indices)` ready for
/// [`ColumnData::take`].
pub fn split_pairs(pairs: &[(usize, usize)]) -> (Vec<usize>, Vec<usize>) {
    (
        pairs.iter().map(|p| p.0).collect(),
        pairs.iter().map(|p| p.1).collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use nodb_types::Value;

    #[test]
    fn hash_join_one_to_one() {
        let l = ColumnData::from_i64(vec![1, 2, 3, 4]);
        let r = ColumnData::from_i64(vec![3, 1, 5]);
        let mut pairs = hash_join_positions(&l, &r).unwrap();
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(0, 1), (2, 0)]);
    }

    #[test]
    fn hash_join_duplicates_cross_product() {
        let l = ColumnData::from_i64(vec![7, 7]);
        let r = ColumnData::from_i64(vec![7, 7, 7]);
        let pairs = hash_join_positions(&l, &r).unwrap();
        assert_eq!(pairs.len(), 6);
    }

    #[test]
    fn hash_join_nulls_never_match() {
        let mut l = ColumnData::empty(nodb_types::DataType::Int64);
        for v in [Value::Null, Value::Int(1)] {
            l.push(v).unwrap();
        }
        let mut r = ColumnData::empty(nodb_types::DataType::Int64);
        for v in [Value::Null, Value::Int(1)] {
            r.push(v).unwrap();
        }
        let pairs = hash_join_positions(&l, &r).unwrap();
        assert_eq!(pairs, vec![(1, 1)]);
    }

    #[test]
    fn string_keys_join() {
        let l = ColumnData::from_strings(vec!["a".into(), "b".into()]);
        let r = ColumnData::from_strings(vec!["b".into(), "c".into()]);
        let pairs = hash_join_positions(&l, &r).unwrap();
        assert_eq!(pairs, vec![(1, 0)]);
    }

    #[test]
    fn merge_join_matches_hash_join() {
        let l = ColumnData::from_i64(vec![5, 3, 3, 9, 1]);
        let r = ColumnData::from_i64(vec![3, 9, 3, 2]);
        let mut h = hash_join_positions(&l, &r).unwrap();
        let mut m = merge_join_positions(&l, &r).unwrap();
        h.sort_unstable();
        m.sort_unstable();
        assert_eq!(h, m);
    }

    #[test]
    fn table_capacity_refuses_u32_overflow() {
        assert_eq!(join_table_buckets(0).unwrap(), 2);
        assert_eq!(join_table_buckets(5).unwrap(), 8);
        assert_eq!(join_table_buckets(1 << 20).unwrap(), 1 << 20);
        let last = u32::MAX as usize - 1;
        assert_eq!(join_table_buckets(last).unwrap(), 1 << 32);
        for n in [u32::MAX as usize, u32::MAX as usize + 1, usize::MAX] {
            let err = join_table_buckets(n).unwrap_err();
            assert!(matches!(err, Error::ResourceExhausted(_)), "{err:?}");
        }
    }

    #[test]
    fn split_pairs_gathers() {
        let pairs = vec![(0, 2), (1, 0)];
        let (li, ri) = split_pairs(&pairs);
        assert_eq!(li, vec![0, 1]);
        assert_eq!(ri, vec![2, 0]);
        let payload = ColumnData::from_i64(vec![100, 200, 300]);
        assert_eq!(payload.take(&ri).as_i64_slice().unwrap(), &[300, 100]);
    }

    mod properties {
        use super::*;
        use crate::morsel::{
            cold_join_build_morsel, cold_join_partitions, parallel_hash_join_positions,
        };
        use proptest::prelude::*;

        proptest! {
            /// Hash and merge joins agree with the nested-loop definition.
            #[test]
            fn joins_agree_with_nested_loop(
                ls in proptest::collection::vec(0i64..15, 0..30),
                rs in proptest::collection::vec(0i64..15, 0..30)) {
                let l = ColumnData::from_i64(ls.clone());
                let r = ColumnData::from_i64(rs.clone());
                let mut expected = Vec::new();
                for (i, &a) in ls.iter().enumerate() {
                    for (j, &b) in rs.iter().enumerate() {
                        if a == b {
                            expected.push((i, j));
                        }
                    }
                }
                expected.sort_unstable();
                let mut h = hash_join_positions(&l, &r).unwrap();
                h.sort_unstable();
                prop_assert_eq!(&h, &expected);
                let mut m = merge_join_positions(&l, &r).unwrap();
                m.sort_unstable();
                prop_assert_eq!(&m, &expected);
            }

            /// Serial, warm-parallel and cold build+probe emit the
            /// identical pair *sequence* — probe-scan order, ascending
            /// build row per match — for heavy duplicates, keys that share
            /// one bucket, extreme and negative keys, NULLs and empty
            /// sides.
            #[test]
            fn int_join_paths_emit_identical_pair_order(
                ls in proptest::collection::vec(0u8..=255, 0..80),
                rs in proptest::collection::vec(0u8..=255, 0..80),
                shape in 0u8..5,
            ) {
                let (l, lk) = keys(&ls, shape);
                let (r, rk) = keys(&rs, shape);
                let mut expected = Vec::new();
                for (j, b) in rk.iter().enumerate() {
                    for (i, a) in lk.iter().enumerate() {
                        if a.is_some() && a == b {
                            expected.push((i, j));
                        }
                    }
                }
                prop_assert_eq!(hash_join_positions(&l, &r).unwrap(), expected.clone());
                for threads in [1, 2, 4] {
                    for morsel_rows in [1, 7, 500] {
                        let warm =
                            parallel_hash_join_positions(&l, &r, threads, morsel_rows).unwrap();
                        prop_assert_eq!(&warm, &expected, "warm t={} m={}", threads, morsel_rows);
                        let cold = cold_join(&l, &r, threads, morsel_rows);
                        prop_assert_eq!(&cold, &expected, "cold t={} m={}", threads, morsel_rows);
                    }
                }
            }
        }

        /// Multiplicative inverse of the [`key_hash`] multiplier: the key
        /// `i * INV_GOLDEN` hashes to exactly `i`.
        const INV_GOLDEN: u64 = 0xF1DE_83E1_9937_733D;

        /// An `Int64` key column from seeds, shaped by `shape`: heavy
        /// duplicates; multiples of 2^60, whose hashes differ only in
        /// their top four bits; distinct keys hashing to 0..8, so all of
        /// them share partition 0 and bucket 0 at any table size;
        /// extreme and negative keys; or NULLs mixed into few distinct
        /// keys. Returns the column and its keys.
        fn keys(seeds: &[u8], shape: u8) -> (ColumnData, Vec<Option<i64>>) {
            const EXTREMES: [i64; 6] = [i64::MIN, i64::MAX, i64::MIN + 1, -1, 0, -7];
            let ks: Vec<Option<i64>> = seeds
                .iter()
                .map(|&s| match shape {
                    0 => Some(i64::from(s % 4)),
                    1 => Some(i64::from(s % 8) << 60),
                    2 => {
                        let h = u64::from(s % 8);
                        let k = h.wrapping_mul(INV_GOLDEN) as i64;
                        assert_eq!(key_hash(k), h);
                        Some(k)
                    }
                    3 => Some(EXTREMES[usize::from(s) % EXTREMES.len()]),
                    _ => (s % 4 != 0).then_some(i64::from(s % 5)),
                })
                .collect();
            let mut col = ColumnData::empty(nodb_types::DataType::Int64);
            for k in &ks {
                col.push(k.map_or(Value::Null, Value::Int)).unwrap();
            }
            (col, ks)
        }

        /// The fused cold join over `morsel_rows`-row slices of both
        /// sides: per-morsel build partitions, parallel table build,
        /// per-morsel probes concatenated in morsel order.
        fn cold_join(
            l: &ColumnData,
            r: &ColumnData,
            threads: usize,
            morsel_rows: usize,
        ) -> Vec<(usize, usize)> {
            let slices = |c: &ColumnData| -> Vec<(usize, ColumnData)> {
                (0..c.len())
                    .step_by(morsel_rows)
                    .map(|lo| {
                        let hi = (lo + morsel_rows).min(c.len());
                        (lo, c.take(&(lo..hi).collect::<Vec<_>>()))
                    })
                    .collect()
            };
            let all = |c: &ColumnData| (0..c.len()).collect::<Vec<_>>();
            let p = cold_join_partitions(threads);
            let parts = slices(l)
                .iter()
                .map(|(lo, c)| cold_join_build_morsel(c, &all(c), *lo, p))
                .collect();
            let tables = JoinTables::build(parts, p, threads).unwrap();
            slices(r)
                .iter()
                .flat_map(|(lo, c)| tables.probe_morsel(c, &all(c), *lo))
                .collect()
        }
    }
}
