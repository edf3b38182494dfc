//! Two-dimensional on-die power grid (IR-drop map).
//!
//! The paper's headline architectural claim is that sensor arrays "can be
//! multiplied, so that measures in many points of the CUT are possible" —
//! a PSN *scan chain*. Exercising that requires supply voltages that
//! differ from point to point. [`PowerGrid`] models the on-die grid as a
//! `rows × cols` resistive mesh fed from pad nodes, with a load current
//! per tile; solving the nodal equations gives each tile's local supply.
//!
//! One production solver and one reference oracle share the grid:
//!
//! * [`PowerGrid::solve_sparse`] / [`PowerGrid::solve_delta`] — the
//!   production path, built on a banded sparse Cholesky factorization
//!   of the (fixed) conductance matrix ([`GridFactor`], factored **once
//!   per grid** and cached, stored as a column-major band). A 40×40
//!   (1,600-node) grid solves in about a hundred microseconds.
//!   [`PowerGrid::solve_delta`] updates a prior [`GridSolution`] by the
//!   load entries that changed. On a grid with a load tiling
//!   ([`PowerGrid::with_load_blocks`]) whose updated loads are uniform
//!   within every block, it returns the superposition
//!   `v₀ + Σ_t l_t·G_t` of a lazily built tile basis (zero-load rails
//!   `v₀` plus one rail response `G_t` per block) from the *absolute*
//!   block loads `l_t`; any other update is a full factor solve of the
//!   updated loads. [`PowerGrid::quasi_static_transient`] and the
//!   workload stepper both solve through this path;
//! * [`PowerGrid::solve`] — cold Gauss–Seidel relaxation with
//!   successive over-relaxation and a convergence guard
//!   ([`PdnError::NoConvergence`]). It has no production caller: it is
//!   the independent reference the factor is tested against (the
//!   sparse-vs-dense proptest) and benchmarked against.
//!
//! # Examples
//!
//! ```
//! use psnt_cells::units::{Resistance, Voltage};
//! use psnt_pdn::grid::PowerGrid;
//!
//! // A 4×4 grid fed from the four corners.
//! let grid = PowerGrid::new(4, 4, Voltage::from_v(1.0),
//!     Resistance::from_milliohms(40.0), Resistance::from_milliohms(10.0),
//!     vec![(0, 0), (0, 3), (3, 0), (3, 3)])?;
//! // 100 mA drawn at the centre tiles.
//! let mut loads = vec![0.0; 16];
//! loads[5] = 0.1; loads[6] = 0.1; loads[9] = 0.1; loads[10] = 0.1;
//! let v = grid.solve(&loads)?;
//! // Centre tiles sag more than the corners next to the pads.
//! assert!(v[5] < v[0]);
//! # Ok::<(), psnt_pdn::error::PdnError>(())
//! ```

use std::sync::OnceLock;

use psnt_cells::units::{Resistance, Time, Voltage};
use serde::{Deserialize, Serialize};

use crate::error::PdnError;
use crate::waveform::Waveform;

/// Per-grid derived data shared by every solve: the tile adjacency
/// flattened to CSR (offsets + neighbour indices, ordered
/// up/down/left/right to match [`PowerGrid::neighbours`]) plus the pad
/// mask and, on a tiled grid, the node indices of every load block.
/// Built lazily **once per grid** — not once per solve chain — so
/// repeated solves against the same grid perform no per-call setup.
#[derive(Debug, Clone)]
struct GridCache {
    off: Vec<u32>,
    adj: Vec<u32>,
    is_pad: Vec<bool>,
    /// Block-major node indices: block `t`'s nodes, row-major within
    /// the block, are the `t`-th chunk of `block_rows · block_cols`
    /// entries. Empty on an untiled grid.
    block_nodes: Vec<usize>,
}

/// The tile basis of a tiled grid: the zero-load rails and each load
/// block's rail response, so that rails under block-uniform loads are
/// one superposition instead of a triangular solve pair.
#[derive(Debug, Clone)]
struct TileBasis {
    /// Rails with every load at zero: `K⁻¹·b_pad`.
    v0: Vec<f64>,
    /// Tile-major: the `t`-th chunk of `n` entries is
    /// `G_t = K⁻¹·(−1_block t)`, the rails' response to one ampere
    /// drawn at every node of block `t`.
    g: Vec<f64>,
}

impl TileBasis {
    /// `v₀ + Σ_t loads[t]·G_t`: every rail receives its `l_t·G_t[i]`
    /// terms one by one in ascending `t`, as one axpy per block would
    /// add them. Eight columns share a pass over the rails, which cuts
    /// the rails' loads and stores, not the arithmetic.
    fn superpose(&self, loads: &[f64]) -> Vec<f64> {
        const K: usize = 8;
        let mut v = self.v0.clone();
        let n = v.len();
        for (cols, l) in self.g.chunks_exact(K * n).zip(loads.chunks_exact(K)) {
            let cols: [&[f64]; K] = std::array::from_fn(|k| &cols[k * n..][..n]);
            for (i, vi) in v.iter_mut().enumerate() {
                let mut x = *vi;
                for k in 0..K {
                    x += l[k] * cols[k][i];
                }
                *vi = x;
            }
        }
        let done = loads.len() / K * K;
        for (col, &l) in self.g[done * n..].chunks_exact(n).zip(&loads[done..]) {
            for (vi, &gi) in v.iter_mut().zip(col) {
                *vi += l * gi;
            }
        }
        v
    }
}

/// A banded Cholesky factorization `K = L·Lᵀ` of a grid's conductance
/// matrix.
///
/// Under row-major tile numbering the conductance matrix of a
/// rectangular mesh is banded with semi-bandwidth `cols` (the vertical
/// mesh segment couples tile `i` to tile `i − cols`); Cholesky fill-in
/// stays inside that band, so the factor is stored as a dense band of
/// `n × (band + 1)` entries, **column-major** (LAPACK's `pbtrf`
/// layout) so that the factor update and both substitutions read
/// contiguous memory. Factoring costs `O(n · band²)` once per grid;
/// each subsequent [`PowerGrid::solve_sparse`] is a direct
/// `O(n · band)` substitution pair — for the 40×40 campaign grid that
/// is ~130 k flops per solve versus hundreds of full sweeps for a cold
/// Gauss–Seidel relaxation.
///
/// Every loop applies, per entry, the operations of the textbook
/// row-oriented kernel (the tests' oracle) in the same order, so the
/// results are bit-identical to it.
/// Factor entry `(i, j)` receives its `− L[i][t]·L[j][t]` terms in
/// ascending `t`, then the pivot division or `sqrt`. The column-form
/// forward pass gives each `b_i` its `− L[i][j]·y_j` terms in ascending
/// `j`. The back pass is the row form, reading columns of `L` as rows
/// of `Lᵀ`.
#[derive(Debug, Clone)]
pub struct GridFactor {
    n: usize,
    /// Semi-bandwidth of `K`: `cols` for a multi-row grid, 1 for a
    /// single-row grid, 0 for the degenerate 1×1 grid.
    band: usize,
    /// Lower band of `L`, column-major: entry `(i, j)` with
    /// `j ≤ i ≤ j + band` lives at `l[j·(band+1) + (i − j)]`.
    l: Vec<f64>,
}

impl GridFactor {
    /// Number of grid nodes the factorization covers.
    pub fn nodes(&self) -> usize {
        self.n
    }

    /// Semi-bandwidth of the factored conductance matrix.
    pub fn bandwidth(&self) -> usize {
        self.band
    }

    /// Column `j` of `L` from the pivot down: `col[r]` is `L[j+r][j]`,
    /// truncated at the last grid node.
    fn column(&self, j: usize) -> &[f64] {
        let stride = self.band + 1;
        let len = (self.n - j).min(stride);
        &self.l[j * stride..][..len]
    }

    /// Solves `K·x = b` in place: the forward substitution `L·y = b`,
    /// then the back substitution `Lᵀ·x = y`, each `O(n · band)`.
    fn solve_in_place(&self, b: &mut [f64]) {
        for j in 0..self.n {
            let col = self.column(j);
            let y = b[j] / col[0];
            b[j] = y;
            for (bi, &lij) in b[j + 1..j + col.len()].iter_mut().zip(&col[1..]) {
                *bi -= lij * y;
            }
        }
        for i in (0..self.n).rev() {
            let col = self.column(i);
            let mut s = b[i];
            for (&lji, &bj) in col[1..].iter().zip(&b[i + 1..i + col.len()]) {
                s -= lji * bj;
            }
            b[i] = s / col[0];
        }
    }
}

/// A direct-solver solution: per-tile voltages together with the load
/// vector that produced them, so [`PowerGrid::solve_delta`] can apply a
/// set of changed loads to it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridSolution {
    voltages: Vec<f64>,
    loads: Vec<f64>,
}

impl GridSolution {
    /// Per-tile voltages (volts, row-major).
    pub fn voltages(&self) -> &[f64] {
        &self.voltages
    }

    /// The per-tile load currents (amperes) this solution corresponds to.
    pub fn loads(&self) -> &[f64] {
        &self.loads
    }

    /// Consumes the solution, returning the voltage vector.
    pub fn into_voltages(self) -> Vec<f64> {
        self.voltages
    }

    /// The worst (lowest) tile voltage with its tile index — the spatial
    /// IR-drop hotspot of this solution.
    pub fn hotspot(&self) -> (usize, f64) {
        let (idx, &worst) = self
            .voltages
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .expect("grid has at least one tile");
        (idx, worst)
    }
}

/// A rectangular resistive power grid with pad connections.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PowerGrid {
    rows: usize,
    cols: usize,
    v_pad: Voltage,
    /// Conductance of each mesh segment between adjacent tiles.
    g_mesh: f64,
    /// Conductance from a pad tile up to the package plane.
    g_pad: f64,
    /// Pad tile indices (row-major).
    pads: Vec<usize>,
    /// Load tiling as `(block_rows, block_cols)` grid nodes per block,
    /// set by [`PowerGrid::with_load_blocks`]; `None` for an untiled
    /// grid.
    #[serde(default)]
    load_blocks: Option<(usize, usize)>,
    /// Adjacency CSR + pad mask + block map, derived from the config
    /// fields above.
    #[serde(skip)]
    cache: OnceLock<GridCache>,
    /// Banded Cholesky factor of the conductance matrix, built on first
    /// [`PowerGrid::factor`] / [`PowerGrid::solve_sparse`] use.
    #[serde(skip)]
    factor: OnceLock<GridFactor>,
    /// Tile basis of a tiled grid, built on its first
    /// [`PowerGrid::solve_delta`].
    #[serde(skip)]
    basis: OnceLock<TileBasis>,
}

// The lazy caches are derived state: two grids are equal iff their
// configuration is, regardless of which solves have run on each.
impl PartialEq for PowerGrid {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self.v_pad == other.v_pad
            && self.g_mesh == other.g_mesh
            && self.g_pad == other.g_pad
            && self.pads == other.pads
            && self.load_blocks == other.load_blocks
    }
}

impl PowerGrid {
    /// Creates a grid.
    ///
    /// # Errors
    ///
    /// Returns [`PdnError::InvalidParameter`] for an empty grid,
    /// non-positive resistances or no pads, and [`PdnError::OutOfBounds`]
    /// for pad coordinates outside the grid.
    pub fn new(
        rows: usize,
        cols: usize,
        v_pad: Voltage,
        r_mesh: Resistance,
        r_pad: Resistance,
        pads: Vec<(usize, usize)>,
    ) -> Result<PowerGrid, PdnError> {
        if rows == 0 || cols == 0 {
            return Err(PdnError::InvalidParameter {
                name: "rows/cols",
                reason: "grid must be non-empty".into(),
            });
        }
        if r_mesh.ohms() <= 0.0 || r_pad.ohms() <= 0.0 {
            return Err(PdnError::InvalidParameter {
                name: "r_mesh/r_pad",
                reason: "resistances must be positive".into(),
            });
        }
        if pads.is_empty() {
            return Err(PdnError::InvalidParameter {
                name: "pads",
                reason: "at least one pad connection required".into(),
            });
        }
        let mut pad_idx = Vec::with_capacity(pads.len());
        for (r, c) in pads {
            if r >= rows || c >= cols {
                return Err(PdnError::OutOfBounds {
                    row: r,
                    col: c,
                    rows,
                    cols,
                });
            }
            pad_idx.push(r * cols + c);
        }
        pad_idx.sort_unstable();
        pad_idx.dedup();
        Ok(PowerGrid {
            rows,
            cols,
            v_pad,
            g_mesh: 1.0 / r_mesh.ohms(),
            g_pad: 1.0 / r_pad.ohms(),
            pads: pad_idx,
            load_blocks: None,
            cache: OnceLock::new(),
            factor: OnceLock::new(),
            basis: OnceLock::new(),
        })
    }

    /// Declares the grid's load tiling: `block_rows × block_cols`-node
    /// blocks, numbered row-major, whose loads a workload sets block by
    /// block. On a tiled grid, [`PowerGrid::solve_delta`] solves
    /// block-uniform loads by tile-basis superposition.
    ///
    /// # Errors
    ///
    /// Returns [`PdnError::InvalidParameter`] when a block dimension is
    /// zero or does not divide the grid.
    pub fn with_load_blocks(
        self,
        block_rows: usize,
        block_cols: usize,
    ) -> Result<PowerGrid, PdnError> {
        if block_rows == 0
            || block_cols == 0
            || !self.rows.is_multiple_of(block_rows)
            || !self.cols.is_multiple_of(block_cols)
        {
            return Err(PdnError::InvalidParameter {
                name: "load_blocks",
                reason: format!(
                    "{block_rows}×{block_cols} blocks do not tile the {}×{} grid",
                    self.rows, self.cols
                ),
            });
        }
        Ok(PowerGrid {
            load_blocks: Some((block_rows, block_cols)),
            cache: OnceLock::new(),
            basis: OnceLock::new(),
            ..self
        })
    }

    /// Grid nodes of load block `block` (row-major over blocks), in
    /// row-major node order.
    ///
    /// # Panics
    ///
    /// Panics on an untiled grid or a block index past the last block.
    pub fn block_nodes(&self, block: usize) -> &[usize] {
        self.block_chunks()
            .nth(block)
            .expect("block index inside the grid's load tiling")
    }

    /// A square grid with pads on all four corners — the configuration the
    /// scan-chain experiments use.
    ///
    /// # Errors
    ///
    /// Propagates constructor validation.
    pub fn corner_fed(
        side: usize,
        v_pad: Voltage,
        r_mesh: Resistance,
        r_pad: Resistance,
    ) -> Result<PowerGrid, PdnError> {
        let last = side.saturating_sub(1);
        PowerGrid::new(
            side,
            side,
            v_pad,
            r_mesh,
            r_pad,
            vec![(0, 0), (0, last), (last, 0), (last, last)],
        )
    }

    /// Grid rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Grid columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of tiles.
    pub fn tiles(&self) -> usize {
        self.rows * self.cols
    }

    /// The pad (package-side) voltage.
    pub fn v_pad(&self) -> Voltage {
        self.v_pad
    }

    /// Converts a (row, col) coordinate to a tile index.
    ///
    /// # Errors
    ///
    /// Returns [`PdnError::OutOfBounds`] outside the grid.
    pub fn tile_index(&self, row: usize, col: usize) -> Result<usize, PdnError> {
        if row >= self.rows || col >= self.cols {
            return Err(PdnError::OutOfBounds {
                row,
                col,
                rows: self.rows,
                cols: self.cols,
            });
        }
        Ok(row * self.cols + col)
    }

    fn neighbours(&self, idx: usize) -> impl Iterator<Item = usize> + '_ {
        let (r, c) = (idx / self.cols, idx % self.cols);
        let mut out = Vec::with_capacity(4);
        if r > 0 {
            out.push(idx - self.cols);
        }
        if r + 1 < self.rows {
            out.push(idx + self.cols);
        }
        if c > 0 {
            out.push(idx - 1);
        }
        if c + 1 < self.cols {
            out.push(idx + 1);
        }
        out.into_iter()
    }

    /// The lazily-built adjacency CSR + pad mask. Neighbour order
    /// matches [`PowerGrid::neighbours`] (up, down, left, right) so the
    /// accumulated relaxation sums are bit-identical to the iterator
    /// form.
    fn grid_cache(&self) -> &GridCache {
        self.cache.get_or_init(|| {
            let n = self.tiles();
            let mut off = Vec::with_capacity(n + 1);
            let mut adj = Vec::with_capacity(4 * n);
            off.push(0u32);
            for i in 0..n {
                adj.extend(self.neighbours(i).map(|nb| nb as u32));
                off.push(adj.len() as u32);
            }
            let mut is_pad = vec![false; n];
            for &p in &self.pads {
                is_pad[p] = true;
            }
            let mut block_nodes = Vec::new();
            if let Some((block_rows, block_cols)) = self.load_blocks {
                block_nodes.reserve(n);
                for br in 0..self.rows / block_rows {
                    for bc in 0..self.cols / block_cols {
                        for r in br * block_rows..(br + 1) * block_rows {
                            let row = r * self.cols;
                            block_nodes.extend(row + bc * block_cols..row + (bc + 1) * block_cols);
                        }
                    }
                }
            }
            GridCache {
                off,
                adj,
                is_pad,
                block_nodes,
            }
        })
    }

    /// The tile basis of a tiled grid, built through the cached factor
    /// on first use: one solve for `v₀` and one per block.
    fn tile_basis(&self) -> &TileBasis {
        self.basis.get_or_init(|| {
            let n = self.tiles();
            let factor = self.factor();
            let mut v0 = vec![0.0; n];
            self.assemble_rhs(&mut v0, |_| 0.0);
            factor.solve_in_place(&mut v0);
            let blocks = self.block_chunks();
            let mut g = vec![0.0; blocks.len() * n];
            for (col, nodes) in g.chunks_exact_mut(n).zip(blocks) {
                for &nd in nodes {
                    col[nd] = -1.0;
                }
                factor.solve_in_place(col);
            }
            TileBasis { v0, g }
        })
    }

    /// The node lists of every load block, in block order; empty on an
    /// untiled grid.
    fn block_chunks(&self) -> std::slice::ChunksExact<'_, usize> {
        let size = self.load_blocks.map_or(1, |(r, c)| r * c);
        self.grid_cache().block_nodes.chunks_exact(size)
    }

    /// Per-block loads of `loads` when every block of the tiling is
    /// uniform, in block order; `None` on an untiled grid or when some
    /// block holds two different loads.
    fn block_loads(&self, loads: &[f64]) -> Option<Vec<f64>> {
        self.load_blocks?;
        self.block_chunks()
            .map(|nodes| {
                let l = loads[nodes[0]];
                nodes.iter().all(|&nd| loads[nd] == l).then_some(l)
            })
            .collect()
    }

    /// The banded Cholesky factorization of this grid's conductance
    /// matrix, built on first use and cached for the grid's lifetime.
    ///
    /// Construction cannot fail: [`PowerGrid::new`] guarantees positive
    /// mesh/pad conductances and at least one pad, which makes the
    /// conductance matrix symmetric positive definite.
    pub fn factor(&self) -> &GridFactor {
        self.factor.get_or_init(|| {
            let cache = self.grid_cache();
            let n = self.tiles();
            let band = if n == 1 {
                0
            } else if self.rows == 1 {
                1
            } else {
                self.cols
            };
            let stride = band + 1;
            let mut l = vec![0.0; n * stride];
            for j in 0..n {
                for i in j..(j + stride).min(n) {
                    l[j * stride + (i - j)] = self.k_entry(cache, i, j);
                }
            }
            // Right-looking: finish column j (pivot, then scale), then
            // subtract its outer product from the trailing band.
            for j in 0..n {
                let len = (n - j).min(stride);
                let (done, rest) = l.split_at_mut((j + 1) * stride);
                let col = &mut done[j * stride..][..len];
                assert!(col[0] > 0.0, "conductance matrix not SPD at node {j}");
                col[0] = col[0].sqrt();
                let pivot = col[0];
                for lij in &mut col[1..] {
                    *lij /= pivot;
                }
                for c in 1..len {
                    let lkj = col[c];
                    let target = &mut rest[(c - 1) * stride..][..len - c];
                    for (a, &lij) in target.iter_mut().zip(&col[c..]) {
                        *a -= lij * lkj;
                    }
                }
            }
            GridFactor { n, band, l }
        })
    }

    /// Entry `(i, j)`, `j ≤ i`, of the conductance matrix `K`: the
    /// diagonal holds each node's total conductance (mesh degree plus
    /// pad tie where present); the sub-diagonals hold `−g_mesh` for the
    /// left and upper mesh neighbours.
    fn k_entry(&self, cache: &GridCache, i: usize, j: usize) -> f64 {
        if i == j {
            let degree = (cache.off[i + 1] - cache.off[i]) as f64;
            let pad = if cache.is_pad[i] { self.g_pad } else { 0.0 };
            return degree * self.g_mesh + pad;
        }
        let left = j + 1 == i && !i.is_multiple_of(self.cols);
        let up = self.rows > 1 && j + self.cols == i;
        if left || up {
            -self.g_mesh
        } else {
            0.0
        }
    }

    /// Solves the DC nodal equations for the given per-tile load currents
    /// (amperes, row-major) by Gauss–Seidel/SOR relaxation from the pad
    /// voltage, and returns per-tile voltages (volts).
    ///
    /// This is the reference oracle for [`PowerGrid::solve_sparse`]:
    /// production paths solve through the factor instead.
    ///
    /// # Errors
    ///
    /// Returns [`PdnError::InvalidParameter`] when `loads.len()` does not
    /// match the tile count and [`PdnError::NoConvergence`] if relaxation
    /// stalls.
    pub fn solve(&self, loads: &[f64]) -> Result<Vec<f64>, PdnError> {
        if loads.len() != self.tiles() {
            return Err(PdnError::InvalidParameter {
                name: "loads",
                reason: format!(
                    "expected {} tile currents, got {}",
                    self.tiles(),
                    loads.len()
                ),
            });
        }
        let n = self.tiles();
        let vp = self.v_pad.volts();
        let mut v = vec![vp; n];
        let GridCache {
            off, adj, is_pad, ..
        } = self.grid_cache();

        const MAX_ITER: usize = 20_000;
        const TOL: f64 = 1e-12;
        const OMEGA: f64 = 1.6; // SOR factor for a 2-D Laplacian

        for _ in 0..MAX_ITER {
            let mut max_delta: f64 = 0.0;
            for i in 0..n {
                let mut g_sum = 0.0;
                let mut rhs = -loads[i];
                for &nb in &adj[off[i] as usize..off[i + 1] as usize] {
                    g_sum += self.g_mesh;
                    rhs += self.g_mesh * v[nb as usize];
                }
                if is_pad[i] {
                    g_sum += self.g_pad;
                    rhs += self.g_pad * vp;
                }
                let v_new = rhs / g_sum;
                let relaxed = v[i] + OMEGA * (v_new - v[i]);
                max_delta = max_delta.max((relaxed - v[i]).abs());
                v[i] = relaxed;
            }
            if max_delta < TOL {
                return Ok(v);
            }
        }
        Err(PdnError::NoConvergence {
            iterations: MAX_ITER,
            residual: 0.0,
        })
    }

    /// Solves the DC nodal equations directly through the cached banded
    /// Cholesky factor ([`PowerGrid::factor`]) — no iteration, no
    /// convergence tolerance. Agrees with [`PowerGrid::solve`] to well
    /// below the relaxation's own `1e-12` stopping threshold, and on
    /// workload-scale grids (1,600 nodes) runs orders of magnitude
    /// faster than a cold sweep.
    ///
    /// # Errors
    ///
    /// Returns [`PdnError::InvalidParameter`] when `loads.len()` does
    /// not match the tile count.
    pub fn solve_sparse(&self, loads: &[f64]) -> Result<GridSolution, PdnError> {
        let n = self.tiles();
        if loads.len() != n {
            return Err(PdnError::InvalidParameter {
                name: "loads",
                reason: format!("expected {} tile currents, got {}", n, loads.len()),
            });
        }
        Ok(self.factor_solve(loads.to_vec()))
    }

    /// The factor solve of `loads`, which the solution takes ownership
    /// of.
    fn factor_solve(&self, loads: Vec<f64>) -> GridSolution {
        let mut b = vec![0.0; loads.len()];
        self.assemble_rhs(&mut b, |i| loads[i]);
        self.factor().solve_in_place(&mut b);
        GridSolution { voltages: b, loads }
    }

    /// Writes the right-hand side of `K·v = b` into `b`: each pad
    /// tile's package injection `g_pad·v_pad`, minus every tile's load
    /// current `load(tile)`.
    fn assemble_rhs(&self, b: &mut [f64], load: impl Fn(usize) -> f64) {
        let is_pad = &self.grid_cache().is_pad;
        let injection = self.g_pad * self.v_pad.volts();
        for (i, bi) in b.iter_mut().enumerate() {
            *bi = if is_pad[i] { injection } else { 0.0 } - load(i);
        }
    }

    /// Updates a prior [`GridSolution`] by the loads that changed
    /// (`(node_index, new_load_amperes)` pairs; later duplicates win)
    /// and returns the rails of the updated load vector.
    ///
    /// On a tiled grid ([`PowerGrid::with_load_blocks`]) whose updated
    /// loads are uniform within every block, the rails are the tile
    /// superposition `v₀ + Σ_t l_t·G_t` from the *absolute* block loads
    /// `l_t`: one contiguous axpy per block, built on a basis computed
    /// once per grid (on the first call) through the cached factor. The
    /// result never depends on the prior voltages, so a chain of updates
    /// cannot drift; it agrees with [`PowerGrid::solve_sparse`] to
    /// within 1e-12 V. Any other update is a full factor solve of the
    /// updated loads, bit-identical to [`PowerGrid::solve_sparse`].
    ///
    /// An empty or all-unchanged `changed` set returns a clone of
    /// `prior` without touching the solver.
    ///
    /// # Errors
    ///
    /// Returns [`PdnError::InvalidParameter`] when the prior solution's
    /// shape does not match the grid and [`PdnError::OutOfBounds`] for a
    /// changed node index outside the grid.
    pub fn solve_delta(
        &self,
        prior: &GridSolution,
        changed: &[(usize, f64)],
    ) -> Result<GridSolution, PdnError> {
        let n = self.tiles();
        if prior.voltages.len() != n || prior.loads.len() != n {
            return Err(PdnError::InvalidParameter {
                name: "prior",
                reason: format!(
                    "expected a {}-tile solution, got {} voltages / {} loads",
                    n,
                    prior.voltages.len(),
                    prior.loads.len()
                ),
            });
        }
        for &(node, _) in changed {
            if node >= n {
                return Err(PdnError::OutOfBounds {
                    row: node / self.cols,
                    col: node % self.cols,
                    rows: self.rows,
                    cols: self.cols,
                });
            }
        }
        let mut loads = prior.loads.clone();
        let mut moved = false;
        for &(node, new_load) in changed {
            if new_load != loads[node] {
                loads[node] = new_load;
                moved = true;
            }
        }
        if !moved {
            return Ok(prior.clone());
        }
        Ok(match self.block_loads(&loads) {
            Some(block_loads) => GridSolution {
                voltages: self.tile_basis().superpose(&block_loads),
                loads,
            },
            None => self.factor_solve(loads),
        })
    }

    /// Quasi-static transient: solves the grid at every sample instant of
    /// the per-tile load waveforms (amperes) and returns one supply
    /// [`Waveform`] per tile. Valid when the grid's own RC time constants
    /// are far below the waveform time scale — true for on-die resistive
    /// meshes against tens-of-ns PSN.
    ///
    /// Every step is one direct solve through the cached factor
    /// ([`PowerGrid::factor`]) into a single reused right-hand-side
    /// buffer — the same production path as [`PowerGrid::solve_sparse`].
    ///
    /// When the context carries an observer, the number of grid solves
    /// accumulates in its `pdn.grid_solves` counter; the waveforms are
    /// identical with and without an observer.
    ///
    /// # Errors
    ///
    /// Returns [`PdnError::InvalidParameter`] for a load vector that is
    /// not grid-shaped or an empty time span, [`PdnError::Interrupted`]
    /// when the context's supervisor trips, and propagates waveform
    /// validation.
    pub fn quasi_static_transient(
        &self,
        ctx: &mut psnt_ctx::RunCtx<'_>,
        loads: &[Waveform],
        start: Time,
        end: Time,
        dt: Time,
    ) -> Result<Vec<Waveform>, PdnError> {
        if loads.len() != self.tiles() {
            return Err(PdnError::InvalidParameter {
                name: "loads",
                reason: format!(
                    "expected {} tile waveforms, got {}",
                    self.tiles(),
                    loads.len()
                ),
            });
        }
        if dt <= Time::ZERO || end <= start {
            return Err(PdnError::InvalidParameter {
                name: "dt/end",
                reason: "need positive dt and end > start".into(),
            });
        }
        let steps = ((end - start) / dt).ceil() as usize;
        let mut per_tile: Vec<Vec<(Time, f64)>> = vec![Vec::with_capacity(steps + 1); self.tiles()];
        let factor = self.factor();
        let mut b = vec![0.0; self.tiles()];
        // Supervision boundary: one check per solve step (the check
        // cost is negligible next to a grid solve, and a trip loses at
        // most one step of work).
        let sup = ctx.supervisor().clone();
        for k in 0..=steps {
            let t = start + dt * k as f64;
            sup.charge_events(1);
            if let Err(reason) = sup.check_at(t.picoseconds()) {
                return Err(PdnError::Interrupted(reason));
            }
            self.assemble_rhs(&mut b, |i| loads[i].sample(t));
            factor.solve_in_place(&mut b);
            for (tile, &vi) in b.iter().enumerate() {
                per_tile[tile].push((t, vi));
            }
        }
        if let Some(obs) = ctx.observer() {
            obs.metrics.counter_add("pdn.grid_solves", steps as u64 + 1);
        }
        per_tile.into_iter().map(Waveform::from_points).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(side: usize) -> PowerGrid {
        PowerGrid::corner_fed(
            side,
            Voltage::from_v(1.0),
            Resistance::from_milliohms(40.0),
            Resistance::from_milliohms(10.0),
        )
        .unwrap()
    }

    #[test]
    fn constructor_validates() {
        let v = Voltage::from_v(1.0);
        let r = Resistance::from_milliohms(40.0);
        assert!(PowerGrid::new(0, 4, v, r, r, vec![(0, 0)]).is_err());
        assert!(PowerGrid::new(4, 4, v, Resistance::from_ohms(0.0), r, vec![(0, 0)]).is_err());
        assert!(PowerGrid::new(4, 4, v, r, r, vec![]).is_err());
        assert!(matches!(
            PowerGrid::new(4, 4, v, r, r, vec![(4, 0)]),
            Err(PdnError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn zero_load_gives_pad_voltage_everywhere() {
        let grid = mk(5);
        let v = grid.solve(&[0.0; 25]).unwrap();
        for &vi in &v {
            assert!((vi - 1.0).abs() < 1e-9, "{vi}");
        }
    }

    #[test]
    fn wrong_load_length_rejected() {
        let grid = mk(3);
        assert!(grid.solve(&[0.0; 4]).is_err());
    }

    #[test]
    fn single_tile_grid_is_ohms_law() {
        let grid = PowerGrid::new(
            1,
            1,
            Voltage::from_v(1.0),
            Resistance::from_milliohms(40.0),
            Resistance::from_milliohms(10.0),
            vec![(0, 0)],
        )
        .unwrap();
        let v = grid.solve(&[2.0]).unwrap();
        // Only the pad resistance carries the 2 A: drop = 20 mV.
        assert!((v[0] - 0.98).abs() < 1e-9, "{}", v[0]);
    }

    #[test]
    fn centre_load_sags_centre_most() {
        let grid = mk(5);
        let mut loads = vec![0.0; 25];
        loads[12] = 0.5; // centre tile
        let v = grid.solve(&loads).unwrap();
        let (hot, v_hot) = grid.solve_sparse(&loads).unwrap().hotspot();
        assert_eq!(hot, 12);
        assert!(v_hot < v[0]);
        assert!(v_hot < 1.0);
        // Symmetry: the four corners see identical voltages.
        assert!((v[0] - v[4]).abs() < 1e-6);
        assert!((v[0] - v[20]).abs() < 1e-6);
        assert!((v[0] - v[24]).abs() < 1e-6);
    }

    #[test]
    fn current_conservation() {
        // Sum of pad currents equals total load current.
        let grid = mk(4);
        let mut loads = vec![0.01; 16];
        loads[5] = 0.3;
        let v = grid.solve(&loads).unwrap();
        let g_pad = 1.0 / 0.010;
        let pad_tiles = [0usize, 3, 12, 15];
        let injected: f64 = pad_tiles.iter().map(|&p| g_pad * (1.0 - v[p])).sum();
        let drawn: f64 = loads.iter().sum();
        assert!(
            (injected - drawn).abs() < 1e-6,
            "injected {injected} vs drawn {drawn}"
        );
    }

    #[test]
    fn heavier_load_monotonically_lowers_voltages() {
        let grid = mk(4);
        let light = grid.solve(&[0.05; 16]).unwrap();
        let heavy = grid.solve(&[0.10; 16]).unwrap();
        for (l, h) in light.iter().zip(&heavy) {
            assert!(h < l);
        }
    }

    #[test]
    fn quasi_static_transient_tracks_load() {
        let grid = mk(3);
        let ns = Time::from_ns;
        // Tile 4 (centre) ramps its draw; others idle.
        let mut loads = vec![Waveform::constant(0.0); 9];
        loads[4] = Waveform::from_points(vec![(ns(0.0), 0.0), (ns(100.0), 0.4)]).unwrap();
        let waves = grid
            .quasi_static_transient(
                &mut psnt_ctx::RunCtx::serial(),
                &loads,
                Time::ZERO,
                ns(100.0),
                ns(10.0),
            )
            .unwrap();
        assert_eq!(waves.len(), 9);
        // Centre tile droops over time.
        assert!(waves[4].sample(ns(100.0)) < waves[4].sample(ns(0.0)));
        // And droops more than a corner tile at the end.
        assert!(waves[4].sample(ns(100.0)) < waves[0].sample(ns(100.0)));
    }

    #[test]
    fn transient_solve_interrupts_on_cancel_and_sim_budget() {
        use psnt_sup::{CancelToken, Interrupt, RunBudget, Supervisor};
        let grid = mk(2);
        let ns = Time::from_ns;
        let loads = vec![Waveform::constant(0.1); 4];
        // A pre-cancelled token stops before the first step.
        let token = CancelToken::new();
        token.cancel();
        let mut ctx = psnt_ctx::RunCtx::serial()
            .with_supervisor(Supervisor::new(token, RunBudget::unlimited()));
        let err = grid
            .quasi_static_transient(&mut ctx, &loads, Time::ZERO, ns(100.0), ns(10.0))
            .unwrap_err();
        assert_eq!(err, PdnError::Interrupted(Interrupt::Cancelled));
        // A sim-time budget stops the sweep at its horizon.
        let budget = RunBudget::unlimited().sim_time_ps(ns(50.0).picoseconds());
        let mut ctx =
            psnt_ctx::RunCtx::serial().with_supervisor(Supervisor::new(CancelToken::new(), budget));
        let err = grid
            .quasi_static_transient(&mut ctx, &loads, Time::ZERO, ns(100.0), ns(10.0))
            .unwrap_err();
        assert!(
            matches!(err, PdnError::Interrupted(Interrupt::SimTimeBudget { .. })),
            "{err}"
        );
    }

    #[test]
    fn transient_argument_validation() {
        let grid = mk(2);
        let loads = vec![Waveform::constant(0.0); 4];
        assert!(grid
            .quasi_static_transient(
                &mut psnt_ctx::RunCtx::serial(),
                &loads,
                Time::ZERO,
                Time::ZERO,
                Time::from_ns(1.0)
            )
            .is_err());
        assert!(grid
            .quasi_static_transient(
                &mut psnt_ctx::RunCtx::serial(),
                &loads[..2],
                Time::ZERO,
                Time::from_ns(10.0),
                Time::from_ns(1.0)
            )
            .is_err());
    }

    #[test]
    fn tile_index_bounds() {
        let grid = mk(3);
        assert_eq!(grid.tile_index(1, 2).unwrap(), 5);
        assert!(grid.tile_index(3, 0).is_err());
        assert_eq!(grid.tiles(), 9);
        assert_eq!(grid.rows(), 3);
        assert_eq!(grid.cols(), 3);
    }

    #[test]
    fn sparse_matches_dense_solver() {
        let grid = mk(8);
        let mut loads = vec![0.01; 64];
        loads[27] = 0.25;
        loads[0] = 0.1;
        loads[63] = 0.05;
        let dense = grid.solve(&loads).unwrap();
        let sparse = grid.solve_sparse(&loads).unwrap();
        assert_eq!(sparse.loads(), &loads[..]);
        for (i, (d, s)) in dense.iter().zip(sparse.voltages()).enumerate() {
            assert!((d - s).abs() < 1e-9, "tile {i}: dense {d} vs sparse {s}");
        }
        // Both solvers locate the same IR-drop hotspot.
        let dense_argmin = (0..dense.len())
            .min_by(|&a, &b| dense[a].total_cmp(&dense[b]))
            .unwrap();
        assert_eq!(dense_argmin, sparse.hotspot().0);
    }

    #[test]
    fn sparse_handles_degenerate_grids() {
        // 1×1: Ohm's law through the pad tie only.
        let one = PowerGrid::new(
            1,
            1,
            Voltage::from_v(1.0),
            Resistance::from_milliohms(40.0),
            Resistance::from_milliohms(10.0),
            vec![(0, 0)],
        )
        .unwrap();
        let sol = one.solve_sparse(&[2.0]).unwrap();
        assert!((sol.voltages()[0] - 0.98).abs() < 1e-12);
        assert_eq!(one.factor().bandwidth(), 0);

        // 1×N row: band collapses to the horizontal neighbour.
        let row = PowerGrid::new(
            1,
            6,
            Voltage::from_v(1.0),
            Resistance::from_milliohms(40.0),
            Resistance::from_milliohms(10.0),
            vec![(0, 0), (0, 5)],
        )
        .unwrap();
        assert_eq!(row.factor().bandwidth(), 1);
        let loads = [0.0, 0.1, 0.0, 0.2, 0.0, 0.0];
        let dense = row.solve(&loads).unwrap();
        let sparse = row.solve_sparse(&loads).unwrap();
        for (d, s) in dense.iter().zip(sparse.voltages()) {
            assert!((d - s).abs() < 1e-9);
        }

        // N×1 column: the vertical neighbour is the ±1 offset.
        let col = PowerGrid::new(
            6,
            1,
            Voltage::from_v(1.0),
            Resistance::from_milliohms(40.0),
            Resistance::from_milliohms(10.0),
            vec![(0, 0)],
        )
        .unwrap();
        assert_eq!(col.factor().bandwidth(), 1);
        let dense = col.solve(&loads).unwrap();
        let sparse = col.solve_sparse(&loads).unwrap();
        for (d, s) in dense.iter().zip(sparse.voltages()) {
            assert!((d - s).abs() < 1e-9);
        }
    }

    #[test]
    fn delta_solve_matches_fresh_solve() {
        let grid = mk(6);
        let base_loads = vec![0.02; 36];
        let base = grid.solve_sparse(&base_loads).unwrap();
        // Change three scattered tiles (one of them twice: later wins).
        let changed = [(7, 0.3), (20, 0.0), (35, 0.1), (7, 0.25)];
        let next = grid.solve_delta(&base, &changed).unwrap();
        let mut fresh_loads = base_loads.clone();
        fresh_loads[7] = 0.25;
        fresh_loads[20] = 0.0;
        fresh_loads[35] = 0.1;
        assert_eq!(next.loads(), &fresh_loads[..]);
        let fresh = grid.solve_sparse(&fresh_loads).unwrap();
        for (i, (d, f)) in next.voltages().iter().zip(fresh.voltages()).enumerate() {
            assert!((d - f).abs() < 1e-9, "tile {i}: delta {d} vs fresh {f}");
        }
    }

    #[test]
    fn delta_solve_chain_stays_accurate() {
        // A 100-step chain of single-tile changes accumulates no
        // meaningful drift versus solving each pattern from scratch.
        let grid = mk(5);
        let mut sol = grid.solve_sparse(&[0.0; 25]).unwrap();
        for step in 0..100usize {
            let node = (step * 7) % 25;
            let load = 0.05 + 0.001 * step as f64;
            sol = grid.solve_delta(&sol, &[(node, load)]).unwrap();
        }
        let fresh = grid.solve_sparse(sol.loads()).unwrap();
        for (c, f) in sol.voltages().iter().zip(fresh.voltages()) {
            assert!((c - f).abs() < 1e-9);
        }
    }

    #[test]
    fn delta_solve_noop_returns_prior() {
        let grid = mk(4);
        let base = grid.solve_sparse(&[0.05; 16]).unwrap();
        let same = grid.solve_delta(&base, &[]).unwrap();
        assert_eq!(base, same);
        let unchanged = grid.solve_delta(&base, &[(3, 0.05)]).unwrap();
        assert_eq!(base, unchanged);
    }

    #[test]
    fn delta_solve_validates() {
        let grid = mk(4);
        let base = grid.solve_sparse(&[0.0; 16]).unwrap();
        assert!(matches!(
            grid.solve_delta(&base, &[(16, 0.1)]),
            Err(PdnError::OutOfBounds { .. })
        ));
        let other = mk(3).solve_sparse(&[0.0; 9]).unwrap();
        assert!(grid.solve_delta(&other, &[(0, 0.1)]).is_err());
        assert!(grid.solve_sparse(&[0.0; 9]).is_err());
    }

    #[test]
    fn equality_ignores_lazy_caches() {
        let a = mk(4);
        let b = mk(4);
        // Warm one grid's caches; the grids still compare equal, and a
        // clone of the warmed grid round-trips.
        let _ = a.solve_sparse(&[0.1; 16]).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.clone(), b);
        assert_ne!(mk(4), mk(5));
        // The tiling is configuration: it takes part in equality.
        let tiled = mk(4).with_load_blocks(2, 2).unwrap();
        assert_ne!(tiled, mk(4));
        assert_eq!(tiled, mk(4).with_load_blocks(2, 2).unwrap());
        assert_ne!(tiled, mk(4).with_load_blocks(4, 2).unwrap());
    }

    #[test]
    fn load_tiling_must_divide_the_grid() {
        for (block_rows, block_cols) in [(4, 4), (0, 2), (2, 0), (3, 4), (7, 1)] {
            let err = mk(6).with_load_blocks(block_rows, block_cols).unwrap_err();
            assert!(
                matches!(
                    err,
                    PdnError::InvalidParameter {
                        name: "load_blocks",
                        ..
                    }
                ),
                "{block_rows}×{block_cols}: {err:?}"
            );
        }
        let grid = mk(6).with_load_blocks(2, 3).unwrap();
        assert_eq!(grid.load_blocks, Some((2, 3)));
        assert_eq!(mk(6).load_blocks, None);
        // Blocks are numbered row-major; nodes are row-major inside.
        assert_eq!(grid.block_nodes(0), &[0, 1, 2, 6, 7, 8]);
        assert_eq!(grid.block_nodes(1), &[3, 4, 5, 9, 10, 11]);
        assert_eq!(grid.block_nodes(5), &[27, 28, 29, 33, 34, 35]);
    }

    #[test]
    fn serde_round_trip_keeps_the_tiling() {
        let tiled = mk(6).with_load_blocks(3, 2).unwrap();
        let back: PowerGrid = serde::json::from_str(&serde::json::to_string(&tiled)).unwrap();
        assert_eq!(back, tiled);
        assert_eq!(back.load_blocks, Some((3, 2)));
        // A grid serialized without the field reads back untiled.
        let mut value = serde::json::to_value(&mk(6));
        if let serde::Value::Map(fields) = &mut value {
            fields.retain(|(k, _)| k != "load_blocks");
        }
        let old: PowerGrid = serde::json::from_value(&value).unwrap();
        assert_eq!(old, mk(6));
    }

    #[test]
    fn superpose_adds_like_one_axpy_per_block() {
        // 13 blocks: one eight-column pass plus a five-column tail.
        let (n, blocks) = (37, 13);
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let basis = TileBasis {
            v0: (0..n).map(|_| 1.0 + next()).collect(),
            g: (0..n * blocks).map(|_| next()).collect(),
        };
        let loads: Vec<f64> = (0..blocks).map(|_| next()).collect();
        let mut reference = basis.v0.clone();
        for (col, &l) in basis.g.chunks_exact(n).zip(&loads) {
            for (vi, &gi) in reference.iter_mut().zip(col) {
                *vi += l * gi;
            }
        }
        assert_eq!(bits(&basis.superpose(&loads)), bits(&reference));
    }

    #[test]
    fn non_uniform_update_on_a_tiled_grid_is_a_fresh_factor_solve() {
        let grid = mk(6).with_load_blocks(2, 3).unwrap();
        let base = grid.solve_sparse(&[0.02; 36]).unwrap();
        // One node of block 0 moves: the blocks are no longer uniform.
        let next = grid.solve_delta(&base, &[(7, 0.3)]).unwrap();
        let fresh = grid.solve_sparse(next.loads()).unwrap();
        assert_eq!(bits(next.voltages()), bits(fresh.voltages()));
        // Restoring uniformity takes the basis path again.
        let block: Vec<(usize, f64)> = grid.block_nodes(0).iter().map(|&nd| (nd, 0.3)).collect();
        let uniform = grid.solve_delta(&next, &block).unwrap();
        let fresh = grid.solve_sparse(uniform.loads()).unwrap();
        for (u, f) in uniform.voltages().iter().zip(fresh.voltages()) {
            assert!((u - f).abs() <= 1e-12, "basis {u} vs fresh {f}");
        }
    }

    /// The row-oriented reference the column-band kernel replaced: a
    /// left-looking Cholesky into a row-major band (`L[i][j]` at
    /// `l[i·(band+1) + (j + band − i)]`) and the row forms of both
    /// substitutions. The bit-identity tests hold [`GridFactor`] to it.
    struct RowOracle {
        n: usize,
        band: usize,
        l: Vec<f64>,
    }

    impl RowOracle {
        fn factor(grid: &PowerGrid) -> RowOracle {
            let cache = grid.grid_cache();
            let (n, band) = (grid.tiles(), grid.factor().bandwidth());
            let stride = band + 1;
            let mut l = vec![0.0; n * stride];
            for i in 0..n {
                let lo = i.saturating_sub(band);
                for j in lo..=i {
                    let mut s = grid.k_entry(cache, i, j);
                    for t in lo..j {
                        s -= l[i * stride + (t + band - i)] * l[j * stride + (t + band - j)];
                    }
                    l[i * stride + (j + band - i)] = if i == j {
                        s.sqrt()
                    } else {
                        s / l[j * stride + band]
                    };
                }
            }
            RowOracle { n, band, l }
        }

        fn entry(&self, i: usize, j: usize) -> f64 {
            self.l[i * (self.band + 1) + (j + self.band - i)]
        }

        fn solve_in_place(&self, b: &mut [f64]) {
            let w = self.band;
            for i in 0..self.n {
                let mut s = b[i];
                for (j, &bj) in b.iter().enumerate().take(i).skip(i.saturating_sub(w)) {
                    s -= self.entry(i, j) * bj;
                }
                b[i] = s / self.entry(i, i);
            }
            for i in (0..self.n).rev() {
                let mut s = b[i];
                for (j, &bj) in b.iter().enumerate().take(i + w + 1).skip(i + 1) {
                    s -= self.entry(j, i) * bj;
                }
                b[i] = s / self.entry(i, i);
            }
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Holds the factor, a cold solve and every step of a delta chain
    /// of the untiled `grid` to the row oracle bit for bit: each step
    /// must equal the oracle's cold solve of that step's loads.
    fn assert_matches_row_oracle(grid: &PowerGrid, loads: &[f64], steps: &[Vec<(usize, f64)>]) {
        let oracle = RowOracle::factor(grid);
        let f = grid.factor();
        let (n, w) = (f.nodes(), f.bandwidth());
        for j in 0..n {
            for (r, &lij) in f.column(j).iter().enumerate() {
                let i = j + r;
                assert_eq!(lij.to_bits(), oracle.entry(i, j).to_bits(), "L[{i}][{j}]");
            }
            assert_eq!(f.column(j).len(), (n - j).min(w + 1));
        }
        let mut sol = grid.solve_sparse(loads).unwrap();
        let cold = |loads: &[f64]| {
            let mut b = vec![0.0; n];
            grid.assemble_rhs(&mut b, |i| loads[i]);
            oracle.solve_in_place(&mut b);
            b
        };
        assert_eq!(bits(sol.voltages()), bits(&cold(loads)), "solve_sparse");
        let mut reference = loads.to_vec();
        for (k, changed) in steps.iter().enumerate() {
            sol = grid.solve_delta(&sol, changed).unwrap();
            for &(node, load) in changed {
                reference[node] = load;
            }
            assert_eq!(bits(sol.loads()), bits(&reference), "delta step {k}");
            assert_eq!(
                bits(sol.voltages()),
                bits(&cold(&reference)),
                "delta step {k}"
            );
        }
    }

    #[test]
    fn corner_fed_chip_grid_matches_row_oracle_bit_for_bit() {
        let grid = PowerGrid::corner_fed(
            40,
            Voltage::from_v(1.05),
            Resistance::from_milliohms(60.0),
            Resistance::from_milliohms(20.0),
        )
        .unwrap();
        let loads: Vec<f64> = (0..1600).map(|i| 1.0e-4 * (1 + i % 7) as f64).collect();
        // A 5×5 block mid-grid, a uniform step over every node, a
        // single node in the last row, and a duplicate-node set.
        let block = (0..25)
            .map(|k| ((20 + k / 5) * 40 + 20 + k % 5, 2.5e-4))
            .collect();
        let uniform = (0..1600).map(|i| (i, 3.0e-4 + 1.0e-6 * i as f64)).collect();
        let steps = vec![
            block,
            uniform,
            vec![(1598, 0.2)],
            vec![(700, 0.1), (650, 0.0), (700, 0.05)],
        ];
        assert_matches_row_oracle(&grid, &loads, &steps);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// Sparse direct solves agree with the Gauss–Seidel path to
            /// 1e-9 over random load sets on random grid shapes.
            #[test]
            fn sparse_vs_dense_agreement(
                rows in 1usize..7,
                cols in 1usize..7,
                seed in any::<u64>(),
            ) {
                let grid = PowerGrid::new(
                    rows,
                    cols,
                    Voltage::from_v(1.05),
                    Resistance::from_milliohms(60.0),
                    Resistance::from_milliohms(20.0),
                    vec![(0, 0), (rows - 1, cols - 1)],
                )
                .unwrap();
                // A cheap deterministic load pattern from the seed.
                let mut state = seed;
                let loads: Vec<f64> = (0..rows * cols)
                    .map(|_| {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        (state >> 11) as f64 / (1u64 << 53) as f64 * 0.2
                    })
                    .collect();
                let dense = grid.solve(&loads).unwrap();
                let sparse = grid.solve_sparse(&loads).unwrap();
                for (d, s) in dense.iter().zip(sparse.voltages()) {
                    prop_assert!((d - s).abs() < 1e-9, "dense {} vs sparse {}", d, s);
                }
            }

            /// The column-band factor, cold solves and delta chains are
            /// bit-identical to the row-oriented oracle on random grid
            /// shapes (1×1, 1×n, n×1 and 2×n among them), random pads and
            /// random change sets that repeat nodes.
            #[test]
            fn column_band_kernel_matches_row_oracle(
                (rows, cols) in prop_oneof![
                    (Just(1usize), Just(1usize)),
                    (Just(1usize), 2usize..12),
                    (2usize..12, Just(1usize)),
                    (Just(2usize), 1usize..12),
                    (1usize..10, 1usize..10),
                ],
                r_mesh in 5.0..200.0f64,
                r_pad in 5.0..100.0f64,
                seed in any::<u64>(),
            ) {
                let mut state = seed;
                let mut next = |m: usize| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    ((state >> 33) as usize) % m
                };
                let n = rows * cols;
                let pads = vec![(0, 0), (next(rows), next(cols))];
                let grid = PowerGrid::new(
                    rows,
                    cols,
                    Voltage::from_v(1.0),
                    Resistance::from_milliohms(r_mesh),
                    Resistance::from_milliohms(r_pad),
                    pads,
                )
                .unwrap();
                let loads: Vec<f64> = (0..n).map(|_| next(1000) as f64 * 1e-4).collect();
                let steps: Vec<Vec<(usize, f64)>> = (0..1 + next(8))
                    .map(|_| {
                        let lo = next(n);
                        let mut set: Vec<(usize, f64)> = (0..1 + next(6))
                            .map(|_| (lo + next(n - lo), next(1000) as f64 * 1e-4))
                            .collect();
                        set.push((set[0].0, next(1000) as f64 * 1e-4));
                        set
                    })
                    .collect();
                assert_matches_row_oracle(&grid, &loads, &steps);
            }

            /// On random tiled grids — 1×1 blocks, a single block, 1×n
            /// grids, random pads and resistances — every step of a
            /// block-uniform load chain (zero and repeated loads among
            /// them) is within 1e-12 V of `solve_sparse` and within 1e-9
            /// V of the Gauss–Seidel oracle.
            #[test]
            fn tile_basis_chain_matches_fresh_solves(
                (mesh_rows, mesh_cols, block_rows, block_cols) in prop_oneof![
                    (1usize..6, 1usize..6, Just(1usize), Just(1usize)),
                    (Just(1usize), Just(1usize), 1usize..6, 1usize..6),
                    (Just(1usize), 1usize..6, Just(1usize), 1usize..4),
                    (1usize..4, 1usize..4, 1usize..4, 1usize..4),
                ],
                r_mesh in 5.0..200.0f64,
                r_pad in 5.0..100.0f64,
                seed in any::<u64>(),
            ) {
                let mut state = seed;
                let mut next = |m: usize| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    ((state >> 33) as usize) % m
                };
                let (rows, cols) = (mesh_rows * block_rows, mesh_cols * block_cols);
                let grid = PowerGrid::new(
                    rows,
                    cols,
                    Voltage::from_v(1.0),
                    Resistance::from_milliohms(r_mesh),
                    Resistance::from_milliohms(r_pad),
                    vec![(0, 0), (next(rows), next(cols))],
                )
                .unwrap()
                .with_load_blocks(block_rows, block_cols)
                .unwrap();
                let blocks = mesh_rows * mesh_cols;
                let mut block_loads = vec![0.0; blocks];
                let mut sol = grid.solve_sparse(&vec![0.0; rows * cols]).unwrap();
                for _ in 0..1 + next(8) {
                    let mut changed = Vec::new();
                    for (t, l) in block_loads.iter_mut().enumerate() {
                        // Zero, repeated or fresh, a quarter each.
                        *l = match next(4) {
                            0 => 0.0,
                            1 => *l,
                            _ => next(500) as f64 * 1e-4,
                        };
                        changed.extend(grid.block_nodes(t).iter().map(|&nd| (nd, *l)));
                    }
                    sol = grid.solve_delta(&sol, &changed).unwrap();
                    let fresh = grid.solve_sparse(sol.loads()).unwrap();
                    let dense = grid.solve(sol.loads()).unwrap();
                    for ((v, f), d) in sol.voltages().iter().zip(fresh.voltages()).zip(&dense) {
                        prop_assert!((v - f).abs() <= 1e-12, "basis {} vs sparse {}", v, f);
                        prop_assert!((v - d).abs() <= 1e-9, "basis {} vs dense {}", v, d);
                    }
                }
            }

            /// A chain of delta solves equals a fresh factor-backed solve
            /// of the final load pattern.
            #[test]
            fn delta_chain_vs_fresh(
                changes in proptest::collection::vec(
                    (0usize..36, 0.0..0.3f64), 1..40),
            ) {
                let grid = PowerGrid::corner_fed(
                    6,
                    Voltage::from_v(1.0),
                    Resistance::from_milliohms(40.0),
                    Resistance::from_milliohms(10.0),
                )
                .unwrap();
                let mut sol = grid.solve_sparse(&vec![0.0; 36]).unwrap();
                for &(node, load) in &changes {
                    sol = grid.solve_delta(&sol, &[(node, load)]).unwrap();
                }
                let fresh = grid.solve_sparse(sol.loads()).unwrap();
                for (c, f) in sol.voltages().iter().zip(fresh.voltages()) {
                    prop_assert!((c - f).abs() < 1e-9);
                }
            }
        }
    }
}
