// Package surrogate is the tier-0 serving layer of the MFG-CP daemon: a
// precomputed interpolation table over the quantised workload space that
// answers in-region equilibrium queries in microseconds, with a measured
// per-cell error bound attached, instead of the ~tens-of-milliseconds PDE
// solve.
//
// The construction follows the mean-field caching literature (Kim/Park/
// Bennis; Hamidouche et al.): the equilibrium is a smooth function of the
// slowly-drifting workload descriptor (Requests, Pop, Timeliness), so a
// lattice of offline solves plus multilinear interpolation covers the bulk
// of serving traffic. Correctness is framed as a trust region, not a hope:
//
//   - the lattice axes reuse engine.CacheKey's 9-significant-digit float
//     quantisation, so a table node and a cache key never disagree about
//     which workload they describe;
//   - every cell carries an error bound measured against a held-out
//     off-lattice solve at its midpoint (scaled by a safety factor); a cell
//     whose corners did not converge, or whose bound exceeds the caller's
//     SurrogateConfig.MaxErrorBound, is outside the trust region and the
//     request falls through to the real solver ladder;
//   - the table file is CRC-framed like the store/checkpoint envelopes: no
//     byte is trusted before the frame around it checks out.
package surrogate

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/engine"
	"repro/internal/numerics"
)

// File envelope (little endian): the table is one framed gob blob.
//
//	magic   uint32  tableMagic ("MFGT")
//	version uint8   tableVersion
//	blobLen uint32  length of the gob payload
//	crc     uint32  CRC32 (IEEE) over the payload
//	blob    blobLen bytes
const (
	tableMagic   uint32 = 0x4d464754 // "MFGT"
	tableVersion byte   = 1
	tableHeader         = 4 + 1 + 4 + 4

	// maxTableBlob bounds the payload length a header may claim before the
	// loader declares the frame implausible (a million-node table of 64-sample
	// summaries is ~2 GB of solves upstream; 256 MiB of gob is far past any
	// sane sweep).
	maxTableBlob = 256 << 20

	// maxTableNodes bounds the lattice size accepted by Validate, protecting
	// the loader from allocation bombs in hostile headers.
	maxTableNodes = 1 << 20
)

// maxPathSamples is the per-node time-sample budget. SampleEquilibrium also
// builds the serving layer's exact answers (Summarize), so a surrogate answer
// and an engine answer carry the same sample grid. The summary is a decision
// aid, not an archive: a fixed budget keeps its size independent of the
// configured time mesh.
const maxPathSamples = 64

// Axis is one lattice dimension over a workload coordinate: strictly
// increasing node positions, quantised at 9 significant digits (the
// engine.CacheKey quantum). A single-node axis freezes its coordinate —
// requests are in-region only when they match the node exactly (after
// quantisation).
type Axis struct {
	Name  string
	Nodes []float64
}

// Node is one solved lattice point: convergence diagnostics plus the
// downsampled equilibrium observables on the shared Time grid.
type Node struct {
	Converged  bool
	Iterations int
	Residual   float64

	Price         []float64
	MeanControl   []float64
	MeanRemaining []float64
	SharerFrac    []float64
}

// series returns the node's four observable series in answer order.
func (n *Node) series() [4][]float64 {
	return [4][]float64{n.Price, n.MeanControl, n.MeanRemaining, n.SharerFrac}
}

// Table is a precomputed equilibrium surrogate: a lattice of solved nodes
// over (Requests, Pop, Timeliness) for one fixed solver configuration, plus
// one measured interpolation-error bound per lattice cell. Tables are
// immutable after Load/Build and safe for concurrent Lookup.
type Table struct {
	// BaseKey is engine.CacheKey(Config, Workload{}) — the canonical
	// configuration identity. A lookup whose config resolves to a different
	// base key is out of region regardless of its workload.
	BaseKey string
	// Config is the solver configuration every node was solved under
	// (runtime fields stripped).
	Config engine.Config
	// Axes are the lattice dimensions in workload order: Requests, Pop,
	// Timeliness.
	Axes [3]Axis
	// Time is the shared sample grid of every node's observable series.
	Time []float64
	// Nodes holds the solved lattice row-major (Timeliness fastest).
	Nodes []Node
	// Bounds holds one declared error bound per lattice cell, row-major over
	// cells (∏ max(len(Axes[k].Nodes)−1, 1) entries): SafetyFactor × the
	// observable error measured at the cell midpoint against a held-out
	// solve, in the verify-differential metric (sup over time of price/p̂,
	// mean control, q̄/Qk deviations). +Inf marks a cell outside the trust
	// region (a non-converged corner or midpoint).
	Bounds []float64
	// SafetyFactor is the multiplier Build applied to the measured midpoint
	// errors (recorded for provenance).
	SafetyFactor float64
}

// Summary is one /v1/solve answer, shaped like the serving layer's solve
// response: an interpolated table answer with the cell's declared error
// bound, or an exact one (Summarize) whose ErrorBound is 0. Its JSON form is
// the body of an encoded answer (EncodeAnswer).
type Summary struct {
	Converged  bool    `json:"converged"`
	Iterations int     `json:"iterations"`
	Residual   float64 `json:"residual"`

	Time          []float64 `json:"time"`
	Price         []float64 `json:"price"`
	MeanControl   []float64 `json:"mean_control"`
	MeanRemaining []float64 `json:"mean_remaining"`
	SharerFrac    []float64 `json:"sharer_frac"`

	ErrorBound float64 `json:"error_bound,omitempty"`
}

// Quantise rounds v to the engine.CacheKey quantum (9 significant digits),
// the resolution at which two workload coordinates are the same coordinate.
func Quantise(v float64) float64 {
	q, err := strconv.ParseFloat(strconv.FormatFloat(v, 'g', 9, 64), 64)
	if err != nil {
		return v
	}
	return q
}

// nodeCount returns the lattice size ∏ len(Axes[k].Nodes).
func (t *Table) nodeCount() int {
	n := 1
	for _, ax := range t.Axes {
		n *= len(ax.Nodes)
	}
	return n
}

// cellCount returns the number of lattice cells ∏ max(len−1, 1).
func (t *Table) cellCount() int {
	n := 1
	for _, ax := range t.Axes {
		c := len(ax.Nodes) - 1
		if c < 1 {
			c = 1
		}
		n *= c
	}
	return n
}

// cellIndex flattens per-axis cell coordinates row-major.
func (t *Table) cellIndex(ci [3]int) int {
	idx := 0
	for k, ax := range t.Axes {
		c := len(ax.Nodes) - 1
		if c < 1 {
			c = 1
		}
		idx = idx*c + ci[k]
	}
	return idx
}

// Validate checks the table's structural integrity: sorted quantised axes,
// consistent lattice/series/bound shapes, finite-or-+Inf non-negative bounds.
// Load runs it on every decode, so a table that passes framing but carries an
// inconsistent shape is rejected before any lookup can index out of range.
func (t *Table) Validate() error {
	if t.BaseKey == "" {
		return fmt.Errorf("surrogate: table has no base key")
	}
	names := [3]string{"Requests", "Pop", "Timeliness"}
	nodes := 1
	for k, ax := range t.Axes {
		if ax.Name != names[k] {
			return fmt.Errorf("surrogate: axis %d named %q, want %q", k, ax.Name, names[k])
		}
		if len(ax.Nodes) == 0 {
			return fmt.Errorf("surrogate: axis %s has no nodes", ax.Name)
		}
		for i, v := range ax.Nodes {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("surrogate: axis %s node %d is not finite", ax.Name, i)
			}
			if v != Quantise(v) {
				return fmt.Errorf("surrogate: axis %s node %d (%g) is not quantised", ax.Name, i, v)
			}
			if i > 0 && v <= ax.Nodes[i-1] {
				return fmt.Errorf("surrogate: axis %s nodes not strictly increasing at %d", ax.Name, i)
			}
		}
		nodes *= len(ax.Nodes)
	}
	if nodes > maxTableNodes {
		return fmt.Errorf("surrogate: %d lattice nodes exceed the %d limit", nodes, maxTableNodes)
	}
	if len(t.Nodes) != nodes {
		return fmt.Errorf("surrogate: %d solved nodes for a %d-node lattice", len(t.Nodes), nodes)
	}
	if len(t.Time) == 0 {
		return fmt.Errorf("surrogate: table has no time samples")
	}
	for i := range t.Nodes {
		n := &t.Nodes[i]
		for _, s := range n.series() {
			if len(s) != len(t.Time) {
				return fmt.Errorf("surrogate: node %d series length %d, want %d", i, len(s), len(t.Time))
			}
		}
	}
	if want := t.cellCount(); len(t.Bounds) != want {
		return fmt.Errorf("surrogate: %d cell bounds for %d cells", len(t.Bounds), want)
	}
	for i, b := range t.Bounds {
		if math.IsNaN(b) || b < 0 {
			return fmt.Errorf("surrogate: cell %d bound %g must be non-negative (or +Inf)", i, b)
		}
	}
	return nil
}

// Lookup answers one equilibrium query from the table when it lies inside
// the trust region: the config's base key matches, every workload coordinate
// is inside its axis range (exactly on it, for frozen axes), and the
// enclosing cell's declared error bound is finite and within
// cfg.Surrogate.MaxErrorBound (when set). The returned summary carries the
// cell's bound; ok=false means the caller must fall through to a real solve.
func (t *Table) Lookup(cfg engine.Config, w engine.Workload) (*Summary, bool) {
	if engine.CacheKey(cfg, engine.Workload{}) != t.BaseKey {
		return nil, false
	}
	coords := [3]float64{w.Requests, w.Pop, w.Timeliness}
	var (
		cell [3]int
		frac [3]float64 // a frozen axis locates at its one node, fraction 0
	)
	for k, ax := range t.Axes {
		if len(ax.Nodes) == 1 {
			// Frozen axis: in-region only at the node itself (quantised).
			if Quantise(coords[k]) != ax.Nodes[0] {
				return nil, false
			}
			continue
		}
		if coords[k] < ax.Nodes[0] || coords[k] > ax.Nodes[len(ax.Nodes)-1] {
			return nil, false
		}
		i, f, err := numerics.LocateNodes(ax.Nodes, coords[k])
		if err != nil {
			return nil, false
		}
		cell[k], frac[k] = i, f
	}
	bound := t.Bounds[t.cellIndex(cell)]
	if math.IsInf(bound, 1) {
		return nil, false
	}
	if limit := cfg.Surrogate.MaxErrorBound; limit > 0 && bound > limit {
		return nil, false
	}

	// The cell's corner weights, formed as numerics.InterpMultilinear forms
	// them: the same products in axis order, the same corner order, and
	// zero-weight corners skipped. Every sample of every series then sums
	// those corners from zero in that order, so each float is the one an
	// InterpMultilinear call at this point returns, from one pass over the
	// corners' series.
	var corners [8]struct {
		node int
		w    float64
	}
	used := 0
	for corner := range corners {
		wt, flat := 1.0, 0
		for k, ax := range t.Axes {
			bit := (corner >> k) & 1
			if bit == 1 {
				wt *= frac[k]
			} else {
				wt *= 1 - frac[k]
			}
			if wt == 0 {
				break
			}
			flat = flat*len(ax.Nodes) + cell[k] + bit
		}
		if wt != 0 {
			corners[used].node, corners[used].w = flat, wt
			used++
		}
	}
	m := len(t.Time)
	buf := make([]float64, 4*m) // the four series in one allocation
	out := [4][]float64{buf[:m:m], buf[m : 2*m : 2*m], buf[2*m : 3*m : 3*m], buf[3*m:]}
	for _, c := range corners[:used] {
		for s, src := range t.Nodes[c.node].series() {
			dst := out[s]
			for j, v := range src {
				dst[j] += c.w * v
			}
		}
	}
	sum := &Summary{
		Converged:     true,
		Time:          t.Time,
		Price:         out[0],
		MeanControl:   out[1],
		MeanRemaining: out[2],
		SharerFrac:    out[3],
		ErrorBound:    bound,
	}
	// Diagnostics: the most pessimistic corner of the cell (the interpolated
	// answer is no better-converged than its worst ingredient).
	for _, i := range t.cellCorners(cell) {
		n := &t.Nodes[i]
		if n.Iterations > sum.Iterations {
			sum.Iterations = n.Iterations
		}
		if n.Residual > sum.Residual {
			sum.Residual = n.Residual
		}
	}
	return sum, true
}

// cellCorners returns the flat node indices of a cell's corners (1, 2, 4 or
// 8 of them, depending on how many axes are frozen).
func (t *Table) cellCorners(cell [3]int) []int {
	out := make([]int, 0, 8)
	for corner := 0; corner < 8; corner++ {
		flat, skip := 0, false
		for k, ax := range t.Axes {
			bit := (corner >> k) & 1
			if bit == 1 && len(ax.Nodes) == 1 {
				skip = true
				break
			}
			flat = flat*len(ax.Nodes) + cell[k] + bit
		}
		if !skip {
			out = append(out, flat)
		}
	}
	return out
}

// SampleEquilibrium downsamples a solved equilibrium onto the table's
// fixed-budget sample grid and returns the node plus its time vector.
// Summarize builds the serving layer's exact answers from it too.
func SampleEquilibrium(eq *engine.Equilibrium) (Node, []float64) {
	n := Node{
		Converged:  eq.Converged,
		Iterations: eq.Iterations,
	}
	if r := len(eq.Residuals); r > 0 {
		n.Residual = eq.Residuals[r-1]
	}
	count := len(eq.Snapshots)
	if count == 0 {
		return n, nil
	}
	stride := 1
	if count > maxPathSamples {
		stride = (count + maxPathSamples - 1) / maxPathSamples
	}
	var times []float64
	push := func(i int) {
		snap := eq.Snapshots[i]
		times = append(times, snap.T)
		n.Price = append(n.Price, snap.Price)
		n.MeanControl = append(n.MeanControl, snap.MeanControl)
		n.MeanRemaining = append(n.MeanRemaining, snap.QBar)
		n.SharerFrac = append(n.SharerFrac, snap.SharerFrac)
	}
	for i := 0; i < count; i += stride {
		push(i)
	}
	if times[len(times)-1] != eq.Snapshots[count-1].T {
		push(count - 1)
	}
	return n, times
}

// tablePayload is the gob shape inside the CRC frame.
type tablePayload struct {
	Table *Table
}

// Encode renders the table into its framed file format.
func (t *Table) Encode() ([]byte, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	clean := *t
	cfg := clean.Config
	cfg.Obs = nil
	cfg.WarmStart = nil
	clean.Config = cfg
	var blob bytes.Buffer
	if err := gob.NewEncoder(&blob).Encode(tablePayload{Table: &clean}); err != nil {
		return nil, fmt.Errorf("surrogate: encode table: %w", err)
	}
	out := make([]byte, tableHeader, tableHeader+blob.Len())
	binary.LittleEndian.PutUint32(out[0:4], tableMagic)
	out[4] = tableVersion
	binary.LittleEndian.PutUint32(out[5:9], uint32(blob.Len()))
	binary.LittleEndian.PutUint32(out[9:13], crc32.ChecksumIEEE(blob.Bytes()))
	return append(out, blob.Bytes()...), nil
}

// Save writes the framed table atomically: into a temp file of its own in
// the destination directory, synced and closed before it is renamed over
// path, and removed if any step fails. A crashed precompute or host never
// leaves a torn table where a daemon would look for one, and concurrent saves
// to one path each publish a whole table.
func (t *Table) Save(path string) error {
	data, err := t.Encode()
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("surrogate: save table: %w", err)
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Chmod(0o644) // CreateTemp's file is private; tables stay 0644
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("surrogate: save table: %w", err)
	}
	return nil
}

// Decode parses and validates one framed table. It never panics on hostile
// input: the frame is checked before the payload is touched, the payload is
// CRC-verified before gob sees it, and the decoded structure is re-validated
// before anything can index it (FuzzTableDecode pins this).
func Decode(data []byte) (*Table, error) {
	if len(data) < tableHeader {
		return nil, fmt.Errorf("surrogate: table file truncated at %d bytes", len(data))
	}
	if m := binary.LittleEndian.Uint32(data[0:4]); m != tableMagic {
		return nil, fmt.Errorf("surrogate: bad table magic %#x", m)
	}
	if v := data[4]; v != tableVersion {
		return nil, fmt.Errorf("surrogate: table version %d, want %d", v, tableVersion)
	}
	blobLen := binary.LittleEndian.Uint32(data[5:9])
	if blobLen > maxTableBlob {
		return nil, fmt.Errorf("surrogate: implausible table payload length %d", blobLen)
	}
	if int64(len(data)) != int64(tableHeader)+int64(blobLen) {
		return nil, fmt.Errorf("surrogate: table payload length %d does not match file size %d", blobLen, len(data))
	}
	blob := data[tableHeader:]
	if crc := crc32.ChecksumIEEE(blob); crc != binary.LittleEndian.Uint32(data[9:13]) {
		return nil, fmt.Errorf("surrogate: table checksum mismatch (corrupt file)")
	}
	var payload tablePayload
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&payload); err != nil {
		return nil, fmt.Errorf("surrogate: decode table: %w", err)
	}
	if payload.Table == nil {
		return nil, fmt.Errorf("surrogate: table payload is empty")
	}
	if err := payload.Table.Validate(); err != nil {
		return nil, err
	}
	return payload.Table, nil
}

// Load reads and decodes a table file.
func Load(path string) (*Table, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("surrogate: read table: %w", err)
	}
	return Decode(data)
}
