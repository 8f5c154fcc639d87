//! Seeded input bytes and the independent oracles the benchmark checks
//! the program's outputs against.
//!
//! Nothing here calls into atomio: geometry is recomputed from the
//! workloads' definitions (paper §3.1 for column-wise, Figure 1 for the
//! ghost-cell blocks, the producer–consumer ring for the token workload),
//! so a fault in the program's own partitioning or pattern code cannot
//! cancel out against itself.

/// One byte of written data. `key` (< 251) names the writer and its data
/// generation: at every offset, distinct keys give distinct bytes, like
/// `pattern::offset_stamp` gives distinct bytes to distinct ranks. The
/// seed and `salt` (a ring index, say) move the offset-dependent part.
pub fn stamp(base: u8, key: u64) -> u8 {
    ((base as u64 + key) % 251 + 1) as u8
}

/// The offset-dependent part of [`stamp`] for offsets `0..len`, as residues
/// mod 251.
pub fn bases(seed: u64, salt: u64, len: u64) -> Vec<u8> {
    let k = mix(seed ^ salt.wrapping_mul(0xA076_1D64_78BD_642F));
    (0..len)
        .map(|off| (mix(k ^ off.wrapping_mul(0x9E37_79B9_7F4A_7C15)) % 251) as u8)
        .collect()
}

/// splitmix64's finaliser.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Number of mismatching bytes between an output and its oracle (a length
/// difference counts every missing or extra byte).
pub fn mismatches(got: &[u8], want: &[u8]) -> u64 {
    if got == want {
        return 0;
    }
    let common = got.len().min(want.len());
    let differ = got[..common]
        .iter()
        .zip(&want[..common])
        .filter(|(a, b)| a != b)
        .count();
    differ as u64 + (got.len().max(want.len()) - common) as u64
}

/// A row-major 2-D byte array in which each rank owns a rectangle
/// `[r0, r1) × [c0, c1)`; overlapping rectangles are the overlapped
/// regions MPI atomicity is about.
#[derive(Debug, Clone)]
pub struct Grid {
    pub rows: u64,
    pub cols: u64,
    /// Per rank: `(r0, r1, c0, c1)`.
    pub rects: Vec<(u64, u64, u64, u64)>,
}

impl Grid {
    /// Column-wise partitioning (paper §3.1, Figure 3b): P column blocks of
    /// N/P columns; interior ranks see R/2 extra columns on each side, the
    /// first and last only on their inner side.
    pub fn colwise(m: u64, n: u64, p: usize, r: u64) -> Grid {
        let block = n / p as u64;
        let rects = (0..p as u64)
            .map(|k| {
                let c0 = if k == 0 { 0 } else { k * block - r / 2 };
                let c1 = if k + 1 == p as u64 {
                    n
                } else {
                    (k + 1) * block + r / 2
                };
                (0, m, c0, c1)
            })
            .collect();
        Grid {
            rows: m,
            cols: n,
            rects,
        }
    }

    /// Block-block decomposition over a `pr × pc` grid with ghost width `g`
    /// on every side, clipped at the array's edges (paper Figure 1).
    pub fn ghost(rows: u64, cols: u64, pr: usize, pc: usize, g: u64) -> Grid {
        let (bh, bw) = (rows / pr as u64, cols / pc as u64);
        let rects = (0..pr * pc)
            .map(|k| {
                let (i, j) = ((k / pc) as u64, (k % pc) as u64);
                (
                    (i * bh).saturating_sub(g),
                    ((i + 1) * bh + g).min(rows),
                    (j * bw).saturating_sub(g),
                    ((j + 1) * bw + g).min(cols),
                )
            })
            .collect();
        Grid { rows, cols, rects }
    }

    pub fn ranks(&self) -> usize {
        self.rects.len()
    }

    pub fn file_bytes(&self) -> u64 {
        self.rows * self.cols
    }

    /// Bytes in `rank`'s rectangle (the length of its user buffer).
    pub fn rect_bytes(&self, rank: usize) -> u64 {
        let (r0, r1, c0, c1) = self.rects[rank];
        (r1 - r0) * (c1 - c0)
    }

    /// The buffer `rank` writes in data generation `epoch`: its rectangle
    /// in row-major order, each byte stamped with key `epoch·P + rank`.
    pub fn rank_buffer(&self, bases: &[u8], epoch: u64, rank: usize) -> Vec<u8> {
        let key = epoch * self.ranks() as u64 + rank as u64;
        self.gather(rank, |off| stamp(bases[off as usize], key))
    }

    /// The highest-rank-wins image of one data generation: every byte
    /// holds the stamp of the highest rank whose rectangle covers it (what
    /// rank ordering and two-phase I/O both promise); bytes nobody covers
    /// stay 0.
    pub fn image(&self, bases: &[u8], epoch: u64) -> Vec<u8> {
        let p = self.ranks() as u64;
        let mut out = vec![0u8; self.file_bytes() as usize];
        for (rank, &(r0, r1, c0, c1)) in self.rects.iter().enumerate() {
            let key = epoch * p + rank as u64;
            for row in r0..r1 {
                for off in row * self.cols + c0..row * self.cols + c1 {
                    out[off as usize] = stamp(bases[off as usize], key);
                }
            }
        }
        out
    }

    /// `image` seen through `rank`'s rectangle: what a read-back of the
    /// rank's view must return.
    pub fn through_rect(&self, image: &[u8], rank: usize) -> Vec<u8> {
        self.gather(rank, |off| image[off as usize])
    }

    fn gather(&self, rank: usize, f: impl Fn(u64) -> u8) -> Vec<u8> {
        let (r0, r1, c0, c1) = self.rects[rank];
        let mut out = Vec::with_capacity(self.rect_bytes(rank) as usize);
        for row in r0..r1 {
            out.extend((row * self.cols + c0..row * self.cols + c1).map(&f));
        }
        out
    }
}

/// The producer–consumer ring: P ranks own consecutive `block`-byte
/// blocks; every round each rank rewrites its block, then reads its left
/// neighbour's.
#[derive(Debug, Clone, Copy)]
pub struct Ring {
    pub p: usize,
    pub block: u64,
    pub rounds: u64,
    pub rereads: u64,
}

impl Ring {
    pub fn file_bytes(&self) -> u64 {
        self.p as u64 * self.block
    }

    pub fn left(&self, rank: usize) -> usize {
        (rank + self.p - 1) % self.p
    }

    /// What `writer` writes over its block in `round`: key `round·P +
    /// writer`, so every (writer, round) pair differs at every offset and
    /// a stale read shows by value.
    pub fn block_data(&self, bases: &[u8], writer: usize, round: u64) -> Vec<u8> {
        let key = round * self.p as u64 + writer as u64;
        let lo = writer as u64 * self.block;
        (lo..lo + self.block)
            .map(|off| stamp(bases[off as usize], key))
            .collect()
    }

    /// The file after the last round: every block holds its owner's
    /// last-round data.
    pub fn final_image(&self, bases: &[u8]) -> Vec<u8> {
        (0..self.p)
            .flat_map(|w| self.block_data(bases, w, self.rounds - 1))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamps_differ_across_keys_at_every_offset() {
        let b = bases(7, 0, 4096);
        for &base in &b {
            let vals: std::collections::HashSet<u8> = (0..32).map(|k| stamp(base, k)).collect();
            assert_eq!(vals.len(), 32);
            assert!(!vals.contains(&0));
        }
        assert_ne!(bases(7, 0, 64), bases(8, 0, 64), "the seed moves the bytes");
        assert_ne!(bases(7, 0, 64), bases(7, 1, 64), "the salt moves the bytes");
    }

    #[test]
    fn colwise_grid_matches_the_paper() {
        // 4 ranks over 64 columns with R = 4: 16-column blocks, ±2 overlap.
        let g = Grid::colwise(2, 64, 4, 4);
        assert_eq!(
            g.rects,
            vec![
                (0, 2, 0, 18),
                (0, 2, 14, 34),
                (0, 2, 30, 50),
                (0, 2, 46, 64)
            ]
        );
    }

    #[test]
    fn ghost_grid_clips_at_the_edges() {
        let g = Grid::ghost(16, 16, 2, 2, 2);
        assert_eq!(g.rects[0], (0, 10, 0, 10));
        assert_eq!(g.rects[3], (6, 16, 6, 16));
    }

    #[test]
    fn image_is_highest_rank_wins() {
        let g = Grid::colwise(1, 8, 2, 2);
        let b = vec![0u8; 8];
        // Rank 0 covers columns 0..5, rank 1 covers 3..8.
        let img = g.image(&b, 0);
        assert_eq!(img, vec![1, 1, 1, 2, 2, 2, 2, 2]);
        assert_eq!(g.through_rect(&img, 0), vec![1, 1, 1, 2, 2]);
    }

    #[test]
    fn mismatches_counts_bytes_and_length() {
        assert_eq!(mismatches(&[1, 2, 3], &[1, 2, 3]), 0);
        assert_eq!(mismatches(&[1, 9, 3], &[1, 2, 3]), 1);
        assert_eq!(mismatches(&[1, 2], &[1, 2, 3]), 1);
    }
}
