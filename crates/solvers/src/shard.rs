//! Row-band partitioning of a tier footprint.
//!
//! A row couples only to the rows directly above and below it, so a tier
//! splits into contiguous **row bands** along the y-axis, each extended
//! by a 1-row halo of its neighbours' boundary rows. Every row (and
//! therefore every load and pad site) belongs to exactly one band. The
//! band engine builds its halo images and per-band segment lists on this
//! split.

/// One contiguous row band: it owns rows `y0..y1` and sweeps inside the
/// halo-extended rows `lo..hi`, which add the neighbouring band's
/// boundary row above (`lo = y0 - 1`) and below (`hi = y1 + 1`) where
/// one exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RowBand {
    pub(crate) y0: usize,
    pub(crate) y1: usize,
    pub(crate) lo: usize,
    pub(crate) hi: usize,
}

/// Splits `height` rows into `bands` near-equal contiguous bands,
/// clamped to `1..=height` so every band owns at least one row: with
/// `height = q·n + r`, the first `r` bands carry `q + 1` rows and the
/// rest `q`. A zero `height` yields no bands.
pub(crate) fn row_bands(height: usize, bands: usize) -> impl Iterator<Item = RowBand> {
    let n = bands.max(1).min(height);
    let mut y1 = 0;
    (0..n).map(move |i| {
        let y0 = y1;
        y1 = y0 + height / n + usize::from(i < height % n);
        RowBand {
            y0,
            y1,
            lo: y0.saturating_sub(1),
            hi: (y1 + 1).min(height),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(height: usize, bands: usize) -> Vec<RowBand> {
        row_bands(height, bands).collect()
    }

    #[test]
    fn bands_cover_every_row_exactly_once() {
        for height in [1usize, 2, 3, 7, 16, 33] {
            for bands in [1usize, 2, 3, 4, 9, 64] {
                let split = plan(height, bands);
                assert_eq!(split.len(), bands.clamp(1, height));
                let mut owners = vec![0usize; height];
                let mut y = 0usize;
                for band in &split {
                    assert_eq!(band.y0, y, "h={height} n={bands}");
                    assert!(band.y1 > band.y0);
                    for c in &mut owners[band.y0..band.y1] {
                        *c += 1;
                    }
                    y = band.y1;
                }
                assert_eq!(y, height);
                assert!(owners.iter().all(|&c| c == 1), "h={height} n={bands}");
            }
        }
    }

    #[test]
    fn bands_are_near_equal() {
        let rows = |h, n| -> Vec<usize> { row_bands(h, n).map(|b| b.y1 - b.y0).collect() };
        let r = rows(100, 8);
        assert_eq!(r.iter().sum::<usize>(), 100);
        let (min, max) = (r.iter().min().unwrap(), r.iter().max().unwrap());
        assert!(max - min <= 1, "rows {r:?}");
        // The remainder goes to the first bands.
        assert_eq!(rows(10, 4), [3, 3, 2, 2]);
    }

    #[test]
    fn halos_exist_exactly_at_interior_boundaries() {
        let b = plan(9, 3);
        assert!(b[0].lo == b[0].y0 && b[0].hi > b[0].y1);
        assert!(b[1].lo < b[1].y0 && b[1].hi > b[1].y1);
        assert!(b[2].lo < b[2].y0 && b[2].hi == b[2].y1);
        assert_eq!((b[0].lo, b[0].hi), (0, 4));
        assert_eq!((b[1].lo, b[1].hi), (2, 7));
        assert_eq!((b[2].lo, b[2].hi), (5, 9));
        assert_eq!(b[1].hi - b[1].lo, 5);
    }

    #[test]
    fn single_shard_has_no_halo() {
        let b = plan(5, 1);
        assert_eq!(b.len(), 1);
        assert_eq!((b[0].lo, b[0].hi), (0, 5));
        assert!(b[0].lo == b[0].y0 && b[0].hi == b[0].y1);
    }

    #[test]
    fn shard_count_clamps_to_height() {
        let b = plan(3, 10);
        assert_eq!(b.len(), 3);
        assert!(b.iter().all(|b| b.y1 - b.y0 == 1));
        assert_eq!(plan(4, 0).len(), 1);
    }

    #[test]
    fn empty_height_yields_empty_plan() {
        assert_eq!(row_bands(0, 4).count(), 0);
    }
}
