//! MaskRDD and multi-attribute arrays (paper §III-B1, Fig. 4).
//!
//! A [`SpangleArray`] manages several attributes of the same geometry in a
//! column-store layout: one [`ArrayRdd`] per attribute. Operators must keep
//! all attributes consistent — a cell filtered out of one attribute is
//! invalid in all of them. Doing that eagerly rewrites every attribute per
//! operator; the **MaskRDD** instead accumulates validity changes in a
//! single hidden mask RDD and applies them to an attribute only when it is
//! actually materialised ("every operation transforms only a MaskRDD, and
//! Spangle evaluates all ArrayRDDs on-demand"). Fig. 9b measures exactly
//! this lazy/eager contrast.

use crate::array::{join_chunks, map_chunks, range_mask, ArrayRdd};
use crate::element::Element;
use crate::meta::{ArrayMeta, ChunkId};
use spangle_bitmask::Bitmask;
use spangle_dataflow::{JobError, MemSize, Rdd};
use std::sync::Arc;

/// Newtype for bitmasks travelling through RDDs (gives them shuffle-size
/// accounting).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AttrMask(pub Bitmask);

impl MemSize for AttrMask {
    fn mem_size(&self) -> usize {
        self.0.mem_size()
    }

    fn spillable() -> bool {
        true
    }

    fn spill_encode(&self, out: &mut Vec<u8>) {
        self.0.write_le(out);
    }

    fn spill_decode(input: &mut spangle_dataflow::SpillCursor<'_>) -> Option<Self> {
        let (mask, used) = Bitmask::read_le(input.rest())?;
        input.skip(used)?;
        Some(AttrMask(mask))
    }
}

/// The hidden validity attribute: per-chunk global masks.
#[derive(Clone)]
pub struct MaskRdd {
    rdd: Rdd<(ChunkId, AttrMask)>,
}

impl MaskRdd {
    /// Wraps a mask RDD.
    pub fn new(rdd: Rdd<(ChunkId, AttrMask)>) -> Self {
        MaskRdd { rdd }
    }

    /// Derives the initial mask RDD from an attribute's chunk validity.
    pub fn from_array<E: Element>(array: &ArrayRdd<E>) -> Self {
        MaskRdd {
            rdd: map_chunks(array.rdd(), |_, chunk| Some(AttrMask(chunk.mask()))),
        }
    }

    /// The underlying RDD.
    pub fn rdd(&self) -> &Rdd<(ChunkId, AttrMask)> {
        &self.rdd
    }

    /// Transforms every chunk mask (chunk IDs preserved); masks becoming
    /// all-zero are dropped, like empty chunks.
    pub fn transform(
        &self,
        f: impl Fn(ChunkId, &Bitmask) -> Bitmask + Send + Sync + 'static,
    ) -> MaskRdd {
        MaskRdd {
            rdd: map_chunks(&self.rdd, move |id, m| {
                let new = f(id, &m.0);
                (!new.all_zero()).then_some(AttrMask(new))
            }),
        }
    }

    /// Combines two mask RDDs chunk-wise with AND or OR (Fig. 4c): the
    /// mask half of the Join operator.
    pub fn combine(&self, other: &MaskRdd, mode: JoinMode) -> MaskRdd {
        MaskRdd {
            rdd: join_chunks(&self.rdd, &other.rdd, move |_, l, r| {
                let out = match (l, r, mode) {
                    (Some(a), Some(b), JoinMode::And) => a.0.and(&b.0),
                    (Some(a), Some(b), JoinMode::Or) => a.0.or(&b.0),
                    // AND with a missing (all-empty) chunk is empty.
                    (_, _, JoinMode::And) | (None, None, JoinMode::Or) => return None,
                    (Some(a), None, JoinMode::Or) | (None, Some(a), JoinMode::Or) => a.0.clone(),
                };
                (!out.all_zero()).then_some(AttrMask(out))
            }),
        }
    }

    /// Marks the mask RDD for caching.
    pub fn persist(&self) -> &Self {
        self.rdd.persist();
        self
    }
}

/// AND-join vs OR-join (§V-A3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JoinMode {
    /// Valid iff valid in both inputs.
    And,
    /// Valid iff valid in either input.
    Or,
}

/// A multi-attribute array in column-store layout, optionally carrying a
/// lazy MaskRDD.
pub struct SpangleArray<E: Element> {
    meta: Arc<ArrayMeta>,
    attributes: Vec<(String, ArrayRdd<E>)>,
    /// Pending validity, applied on materialisation. `None` means the
    /// array runs in *eager* mode: operators rewrite every attribute.
    mask: Option<MaskRdd>,
}

impl<E: Element> Clone for SpangleArray<E> {
    fn clone(&self) -> Self {
        SpangleArray {
            meta: self.meta.clone(),
            attributes: self.attributes.clone(),
            mask: self.mask.clone(),
        }
    }
}

impl<E: Element> SpangleArray<E> {
    /// Bundles attributes of identical geometry. `lazy` selects MaskRDD
    /// mode; eager mode reproduces the "without MaskRDD" baseline of
    /// Fig. 9b.
    pub fn new(attributes: Vec<(String, ArrayRdd<E>)>, lazy: bool) -> Self {
        assert!(
            !attributes.is_empty(),
            "an array needs at least one attribute"
        );
        let meta = attributes[0].1.meta_arc();
        for (name, a) in &attributes[1..] {
            assert_eq!(*a.meta(), *meta, "attribute {name} has mismatched geometry");
        }
        let mask = lazy.then(|| {
            // The initial global mask is the OR of all attribute masks: a
            // cell is live when any attribute observed it.
            let mut m = MaskRdd::from_array(&attributes[0].1);
            for (_, a) in &attributes[1..] {
                m = m.combine(&MaskRdd::from_array(a), JoinMode::Or);
            }
            m
        });
        SpangleArray {
            meta,
            attributes,
            mask,
        }
    }

    /// Whether the array runs with a lazy MaskRDD.
    pub fn is_lazy(&self) -> bool {
        self.mask.is_some()
    }

    /// Array geometry.
    pub fn meta(&self) -> &ArrayMeta {
        &self.meta
    }

    /// Attribute names, in column order.
    pub fn attribute_names(&self) -> Vec<&str> {
        self.attributes.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// Number of attributes.
    pub fn num_attributes(&self) -> usize {
        self.attributes.len()
    }

    /// Subarray over all attributes. Lazy mode touches only the MaskRDD;
    /// eager mode rewrites every attribute.
    pub fn subarray(&self, lo: &[usize], hi: &[usize]) -> SpangleArray<E> {
        match &self.mask {
            Some(mask) => {
                let meta = self.meta.clone();
                let lo = lo.to_vec();
                let hi = hi.to_vec();
                let new_mask = mask.transform(move |id, m| {
                    let mapper = meta.mapper();
                    m.and(&range_mask(&mapper, id, m.len(), &lo, &hi))
                });
                SpangleArray {
                    meta: self.meta.clone(),
                    attributes: self.attributes.clone(),
                    mask: Some(new_mask),
                }
            }
            None => SpangleArray {
                meta: self.meta.clone(),
                attributes: self
                    .attributes
                    .iter()
                    .map(|(n, a)| (n.clone(), a.subarray(lo, hi)))
                    .collect(),
                mask: None,
            },
        }
    }

    /// Filter on one attribute's values; the invalidation propagates to
    /// every attribute (via the MaskRDD in lazy mode, eagerly otherwise).
    pub fn filter_attribute(
        &self,
        attr: &str,
        pred: impl Fn(E) -> bool + Send + Sync + Clone + 'static,
    ) -> SpangleArray<E> {
        let idx = self.attribute_index(attr);
        match &self.mask {
            Some(mask) => {
                // Compute the surviving-cell mask of the filtered attribute
                // and AND it into the global mask.
                let filtered = self.attributes[idx].1.filter(pred);
                let new_mask = mask.combine(&MaskRdd::from_array(&filtered), JoinMode::And);
                SpangleArray {
                    meta: self.meta.clone(),
                    attributes: self.attributes.clone(),
                    mask: Some(new_mask),
                }
            }
            None => {
                // Eager: restrict every attribute by the filter survivors.
                let filtered = self.attributes[idx].1.filter(pred);
                let survivor_mask = MaskRdd::from_array(&filtered);
                let attributes = self
                    .attributes
                    .iter()
                    .map(|(n, a)| (n.clone(), apply_mask(a, &survivor_mask)))
                    .collect();
                SpangleArray {
                    meta: self.meta.clone(),
                    attributes,
                    mask: None,
                }
            }
        }
    }

    /// Joins two arrays (§V-A3): the result carries both inputs'
    /// attributes, with validity combined by `mode`.
    pub fn join(&self, other: &SpangleArray<E>, mode: JoinMode) -> SpangleArray<E> {
        assert_eq!(*self.meta, *other.meta, "join requires identical geometry");
        let mut attributes = self.attributes.clone();
        attributes.extend(other.attributes.iter().cloned());
        match (&self.mask, &other.mask) {
            (Some(a), Some(b)) => SpangleArray {
                meta: self.meta.clone(),
                attributes,
                mask: Some(a.combine(b, mode)),
            },
            _ => {
                // Eager join: materialise a combined mask and apply to all.
                let a = self.global_mask();
                let b = other.global_mask();
                let combined = a.combine(&b, mode);
                let attributes = attributes
                    .into_iter()
                    .map(|(n, arr)| (n.clone(), apply_mask(&arr, &combined)))
                    .collect();
                SpangleArray {
                    meta: self.meta.clone(),
                    attributes,
                    mask: None,
                }
            }
        }
    }

    /// Materialises one attribute with every pending mask applied.
    pub fn materialize(&self, attr: &str) -> ArrayRdd<E> {
        let idx = self.attribute_index(attr);
        match &self.mask {
            Some(mask) => apply_mask(&self.attributes[idx].1, mask),
            None => self.attributes[idx].1.clone(),
        }
    }

    /// Number of valid cells of one attribute after pending masks.
    pub fn count_valid(&self, attr: &str) -> Result<usize, JobError> {
        self.materialize(attr).count_valid()
    }

    /// The current global validity as a mask RDD (lazy: the pending mask;
    /// eager: the OR of attribute masks).
    pub fn global_mask(&self) -> MaskRdd {
        match &self.mask {
            Some(m) => m.clone(),
            None => {
                let mut m = MaskRdd::from_array(&self.attributes[0].1);
                for (_, a) in &self.attributes[1..] {
                    m = m.combine(&MaskRdd::from_array(a), JoinMode::Or);
                }
                m
            }
        }
    }

    fn attribute_index(&self, attr: &str) -> usize {
        self.attributes
            .iter()
            .position(|(n, _)| n == attr)
            .unwrap_or_else(|| panic!("unknown attribute {attr:?}"))
    }
}

/// Restricts an attribute's chunks by a mask RDD (AND), dropping emptied
/// chunks. Local when co-partitioned.
fn apply_mask<E: Element>(array: &ArrayRdd<E>, mask: &MaskRdd) -> ArrayRdd<E> {
    let policy = array.policy();
    let rdd = join_chunks(array.rdd(), mask.rdd(), move |_, chunk, mask| {
        // No mask chunk: every cell of this chunk is invalid.
        chunk?.restrict(&mask?.0, &policy)
    });
    ArrayRdd::from_parts(array.context(), array.meta_arc(), policy, rdd)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::ArrayBuilder;
    use crate::meta::ArrayMeta;
    use spangle_dataflow::SpangleContext;

    fn bands(ctx: &SpangleContext, lazy: bool) -> SpangleArray<f64> {
        let meta = ArrayMeta::new(vec![40, 40], vec![16, 16]);
        // Band u: valid on x<30, value x; band g: valid everywhere, value y.
        let u = ArrayBuilder::new(ctx, meta.clone())
            .ingest(|c| (c[0] < 30).then(|| c[0] as f64))
            .build();
        let g = ArrayBuilder::new(ctx, meta)
            .ingest(|c| Some(c[1] as f64))
            .build();
        SpangleArray::new(vec![("u".into(), u), ("g".into(), g)], lazy)
    }

    #[test]
    fn lazy_and_eager_agree_on_subarray() {
        let ctx = SpangleContext::new(4);
        for lazy in [true, false] {
            let arr = bands(&ctx, lazy).subarray(&[5, 5], &[25, 20]);
            assert_eq!(arr.count_valid("u").unwrap(), 20 * 15, "lazy={lazy}");
            assert_eq!(arr.count_valid("g").unwrap(), 20 * 15, "lazy={lazy}");
        }
    }

    #[test]
    fn filter_on_one_attribute_restricts_all() {
        let ctx = SpangleContext::new(4);
        for lazy in [true, false] {
            // Keep cells with u >= 10: x in 10..30.
            let arr = bands(&ctx, lazy).filter_attribute("u", |v| v >= 10.0);
            assert_eq!(arr.count_valid("u").unwrap(), 20 * 40, "lazy={lazy}");
            assert_eq!(
                arr.count_valid("g").unwrap(),
                20 * 40,
                "filter must propagate to g (lazy={lazy})"
            );
        }
    }

    #[test]
    fn chained_operators_compose_on_the_mask() {
        let ctx = SpangleContext::new(4);
        for lazy in [true, false] {
            let arr = bands(&ctx, lazy)
                .subarray(&[0, 0], &[40, 20])
                .filter_attribute("u", |v| v >= 10.0)
                .subarray(&[0, 5], &[40, 40]);
            // x in 10..30, y in 5..20.
            assert_eq!(arr.count_valid("g").unwrap(), 20 * 15, "lazy={lazy}");
        }
    }

    #[test]
    fn materialized_values_match_source() {
        let ctx = SpangleContext::new(4);
        let arr = bands(&ctx, true).filter_attribute("u", |v| v >= 10.0);
        let g = arr.materialize("g");
        assert_eq!(g.get(&[15, 7]).unwrap(), Some(7.0));
        assert_eq!(g.get(&[5, 7]).unwrap(), None, "masked out by the u filter");
    }

    #[test]
    fn or_join_unions_validity_and_attributes() {
        let ctx = SpangleContext::new(4);
        let meta = ArrayMeta::new(vec![20, 20], vec![8, 8]);
        let left = ArrayBuilder::new(&ctx, meta.clone())
            .ingest(|c| (c[0] < 10).then_some(1.0f64))
            .build();
        let right = ArrayBuilder::new(&ctx, meta)
            .ingest(|c| (c[0] >= 15).then_some(2.0f64))
            .build();
        let a = SpangleArray::new(vec![("a".into(), left)], true);
        let b = SpangleArray::new(vec![("b".into(), right)], true);

        let and = a.join(&b, JoinMode::And);
        assert_eq!(and.num_attributes(), 2);
        assert_eq!(and.count_valid("a").unwrap(), 0, "disjoint AND is empty");

        let or = a.join(&b, JoinMode::Or);
        // a has values only where it was valid, even though the OR mask is
        // wider.
        assert_eq!(or.count_valid("a").unwrap(), 10 * 20);
        assert_eq!(or.count_valid("b").unwrap(), 5 * 20);
    }

    #[test]
    fn lazy_mode_defers_attribute_work() {
        let ctx = SpangleContext::new(4);
        let lazy = bands(&ctx, true);
        let before = ctx.metrics_snapshot();
        // Chain three operators without materialising.
        let chained = lazy
            .subarray(&[0, 0], &[40, 20])
            .filter_attribute("u", |v| v >= 10.0)
            .subarray(&[0, 5], &[40, 40]);
        let after_build = ctx.metrics_snapshot() - before;
        assert_eq!(
            after_build.tasks_run, 0,
            "building the lazy pipeline must not run any task"
        );
        // One materialisation pays once.
        assert!(chained.count_valid("g").unwrap() > 0);
    }
}
