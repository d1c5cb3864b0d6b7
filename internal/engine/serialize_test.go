package engine

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"io"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/mec"
	"repro/internal/pde"
)

func TestEquilibriumSerializationRoundTrip(t *testing.T) {
	eq := solveSmall(t)
	var buf bytes.Buffer
	n, err := eq.WriteTo(&buf)
	if err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("reported %d bytes, buffer has %d", n, buf.Len())
	}
	back, err := ReadEquilibrium(&buf)
	if err != nil {
		t.Fatalf("ReadEquilibrium: %v", err)
	}
	if back.Grid != eq.Grid || back.Time != eq.Time {
		t.Fatal("grid/time mesh changed in round trip")
	}
	if back.Iterations != eq.Iterations || back.Converged != eq.Converged {
		t.Error("diagnostics changed in round trip")
	}
	for n := range eq.HJB.V {
		for k := range eq.HJB.V[n] {
			if back.HJB.V[n][k] != eq.HJB.V[n][k] {
				t.Fatalf("value function differs at [%d][%d]", n, k)
			}
			if back.HJB.X[n][k] != eq.HJB.X[n][k] {
				t.Fatalf("strategy differs at [%d][%d]", n, k)
			}
			if back.FPK.Lambda[n][k] != eq.FPK.Lambda[n][k] {
				t.Fatalf("density differs at [%d][%d]", n, k)
			}
		}
	}
	// The restored equilibrium is functional: interpolators and rollouts work.
	x, err := back.HJB.ControlAt(0.3, eq.Config.Params.ChMean, 50)
	if err != nil {
		t.Fatal(err)
	}
	if x < 0 || x > 1 {
		t.Fatalf("restored control %g out of range", x)
	}
	roll, err := back.SimulateRollout(eq.Config.Params.ChMean, 60, 1)
	if err != nil {
		t.Fatal(err)
	}
	if u, _ := roll.Final(); math.IsNaN(u) {
		t.Fatal("restored rollout produced NaN")
	}
}

func TestReadEquilibriumRejectsGarbage(t *testing.T) {
	if _, err := ReadEquilibrium(strings.NewReader("not a gob stream")); err == nil {
		t.Error("garbage input should error")
	}
	if _, err := ReadEquilibrium(strings.NewReader("")); err == nil {
		t.Error("empty input should error")
	}
}

func TestWarmStartSpeedsConvergence(t *testing.T) {
	cold := solveSmall(t)

	// Re-solve a slightly perturbed workload from the cold fixed point.
	w := defaultWorkload()
	w.Requests = 11
	cfg := solverConfig()
	cfg.WarmStart = cold
	warm, err := Solve(cfg, w)
	if err != nil {
		t.Fatalf("warm solve: %v", err)
	}
	coldAgain, err := Solve(solverConfig(), w)
	if err != nil {
		t.Fatalf("cold solve: %v", err)
	}
	if warm.Iterations >= coldAgain.Iterations {
		t.Errorf("warm start should converge faster: %d vs %d iterations",
			warm.Iterations, coldAgain.Iterations)
	}
	// Same fixed point regardless of the start.
	var worst float64
	for n := range warm.HJB.X {
		for k := range warm.HJB.X[n] {
			if d := math.Abs(warm.HJB.X[n][k] - coldAgain.HJB.X[n][k]); d > worst {
				worst = d
			}
		}
	}
	if worst > 5*cfg.Tol {
		t.Errorf("warm and cold solves disagree by %g (uniqueness, Theorem 2)", worst)
	}
}

func TestWarmStartValidation(t *testing.T) {
	cold := solveSmall(t)
	cfg := solverConfig()
	cfg.NQ = cold.Grid.Q.N + 10 // different grid
	cfg.WarmStart = cold
	if _, err := Solve(cfg, defaultWorkload()); err == nil {
		t.Error("grid mismatch should be rejected")
	}
	cfg = solverConfig()
	cfg.WarmStart = &Equilibrium{}
	if _, err := Solve(cfg, defaultWorkload()); err == nil {
		t.Error("warm start without solver outputs should be rejected")
	}
}

// TestWarmStartedSolveKeepsNoAncestry pins that a solved equilibrium does not
// hold the equilibrium it was seeded from, whether the seed came with the
// solve or with the session's config: its Config.WarmStart is nil, and its
// archive round trip gives back an equal Config.
func TestWarmStartedSolveKeepsNoAncestry(t *testing.T) {
	seed := solveSmall(t)
	w := defaultWorkload()
	w.Requests = 11
	cfg := solverConfig()
	cfg.WarmStart = seed
	s, err := NewSession(cfg)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	for _, tc := range []struct {
		name string
		warm *Equilibrium
	}{{"config warm start", nil}, {"per-solve warm start", seed}} {
		eq, err := s.Solve(w, tc.warm)
		if err != nil {
			t.Fatalf("%s: Solve: %v", tc.name, err)
		}
		if eq.Config.WarmStart != nil {
			t.Errorf("%s: the solved equilibrium keeps its warm start", tc.name)
		}
		back, err := UnmarshalEquilibrium(mustMarshal(t, eq))
		if err != nil {
			t.Fatalf("%s: UnmarshalEquilibrium: %v", tc.name, err)
		}
		if !reflect.DeepEqual(back.Config, eq.Config) {
			t.Errorf("%s: the archive round trip changed the config:\n%+v\nwant\n%+v", tc.name, back.Config, eq.Config)
		}
	}
}

// v1Archive encodes eq in format v1, which every build before format v2
// wrote: gob of the version and the whole equilibrium.
func v1Archive(t testing.TB, version int, eq *Equilibrium) []byte {
	t.Helper()
	var buf bytes.Buffer
	arch := struct {
		Version int
		Eq      *Equilibrium
	}{version, eq}
	if err := gob.NewEncoder(&buf).Encode(arch); err != nil {
		t.Fatalf("encode v1 archive: %v", err)
	}
	return buf.Bytes()
}

// specialEquilibrium is a hand-built equilibrium whose every path holds a
// NaN with a payload, −0, ±Inf and a subnormal: values a codec that goes
// through anything but the raw bits would change.
func specialEquilibrium() *Equilibrium {
	path := func(seed float64) [][]float64 {
		return [][]float64{
			{math.Float64frombits(0x7ff8_0000_dead_beef), math.Copysign(0, -1), seed},
			{math.Inf(1), math.Inf(-1), 4 * math.SmallestNonzeroFloat64},
		}
	}
	return &Equilibrium{
		Config:     solverConfig(),
		Workload:   defaultWorkload(),
		HJB:        &pde.HJBSolution{V: path(1), X: path(2)},
		FPK:        &pde.FPKSolution{Lambda: path(3), RawMass: []float64{1, 1}},
		Iterations: 2,
		Residuals:  []float64{0.5, 0.25},
	}
}

func mustMarshal(t testing.TB, eq *Equilibrium) []byte {
	t.Helper()
	blob, err := MarshalEquilibrium(eq)
	if err != nil {
		t.Fatalf("MarshalEquilibrium: %v", err)
	}
	return blob
}

// samePathBits compares the three bulk paths of two equilibria bit for bit.
func samePathBits(t *testing.T, got, want *Equilibrium) {
	t.Helper()
	paths := func(eq *Equilibrium) [3][][]float64 { return [3][][]float64{eq.HJB.V, eq.HJB.X, eq.FPK.Lambda} }
	g, w := paths(got), paths(want)
	for p := range w {
		if len(g[p]) != len(w[p]) {
			t.Fatalf("path %d has %d levels, want %d", p, len(g[p]), len(w[p]))
		}
		for n := range w[p] {
			if len(g[p][n]) != len(w[p][n]) {
				t.Fatalf("path %d level %d has %d nodes, want %d", p, n, len(g[p][n]), len(w[p][n]))
			}
			for k, v := range w[p][n] {
				if math.Float64bits(g[p][n][k]) != math.Float64bits(v) {
					t.Fatalf("path %d differs at [%d][%d]: %#x, want %#x", p, n, k, math.Float64bits(g[p][n][k]), math.Float64bits(v))
				}
			}
		}
	}
}

// sameBits reports whether a and b hold the same archived values: floats
// compare by bit pattern (NaN payloads and −0 count) and a nil slice equals
// an empty one, which no archive tells apart.
func sameBits(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameBits(a.Elem(), b.Elem())
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	default:
		return a.Equal(b)
	}
}

func TestArchiveRoundTripBitExact(t *testing.T) {
	solved, err := Solve(DefaultConfig(mec.Default()), defaultWorkload())
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	for name, eq := range map[string]*Equilibrium{"special values": specialEquilibrium(), "default grid": solved} {
		t.Run(name, func(t *testing.T) {
			blob := mustMarshal(t, eq)
			if !bytes.Equal(blob, loopArchive(t, eq)) {
				t.Error("the archive differs from the element-loop reference's")
			}
			back, err := UnmarshalEquilibrium(blob)
			if err != nil {
				t.Fatalf("UnmarshalEquilibrium: %v", err)
			}
			samePathBits(t, back, eq)
			if !sameBits(reflect.ValueOf(back), reflect.ValueOf(eq)) {
				t.Error("round trip changed a header field")
			}
			// Re-marshalling a decoded archive reproduces it byte for byte.
			if again := mustMarshal(t, back); !bytes.Equal(again, blob) {
				t.Errorf("re-marshalled archive differs: %d bytes, want %d", len(again), len(blob))
			}
		})
	}
}

func TestV1ArchiveDecodes(t *testing.T) {
	eq := solveSmall(t)
	v1, err := UnmarshalEquilibrium(v1Archive(t, 1, eq))
	if err != nil {
		t.Fatalf("decode v1 archive: %v", err)
	}
	blob := mustMarshal(t, eq)
	v2, err := UnmarshalEquilibrium(blob)
	if err != nil {
		t.Fatalf("decode v2 archive: %v", err)
	}
	if !reflect.DeepEqual(v1, v2) {
		t.Error("v1 and v2 archives of one equilibrium decode differently")
	}
	if !bytes.Equal(mustMarshal(t, v1), blob) {
		t.Error("a decoded v1 archive does not re-marshal to the v2 archive")
	}
}

// TestDecodedLevelsAreCapped appends past every path and level of a decoded
// and a solved equilibrium, both of which share one backing array among
// their three paths: no append may reach a neighbouring level or path.
func TestDecodedLevelsAreCapped(t *testing.T) {
	solved := solveSmall(t)
	blob := mustMarshal(t, solved)
	decoded, err := UnmarshalEquilibrium(blob)
	if err != nil {
		t.Fatal(err)
	}
	marker := math.Float64frombits(0x7ff8_0000_0000_0bad)
	for name, eq := range map[string]*Equilibrium{"decoded": decoded, "solved": solved} {
		for _, path := range [][][]float64{eq.HJB.V, eq.HJB.X, eq.FPK.Lambda} {
			_ = append(path[0], marker)           // onto the path's next level if uncapped
			_ = append(path[len(path)-1], marker) // onto the next path's first level
			_ = append(path, nil)                 // over the next path's first level header
		}
		if !bytes.Equal(mustMarshal(t, eq), blob) {
			t.Errorf("%s: appending to a level changed the equilibrium", name)
		}
	}
}

// loopArchive is the reference encoder: the archive framed by hand, its
// header gob-encoded on its own and its bulk encoded one element at a time.
func loopArchive(t *testing.T, eq *Equilibrium) []byte {
	t.Helper()
	hjb, fpk := *eq.HJB, *eq.FPK
	hjb.V, hjb.X, fpk.Lambda = nil, nil, nil
	head := *eq
	head.Config.Obs, head.Config.WarmStart = nil, nil
	head.HJB, head.FPK = &hjb, &fpk
	var header bytes.Buffer
	if err := gob.NewEncoder(&header).Encode(archiveHeader{Levels: len(eq.HJB.V), Width: len(eq.HJB.V[0]), Eq: &head}); err != nil {
		t.Fatal(err)
	}
	out := append([]byte(archiveMagic), archiveVersion)
	out = binary.LittleEndian.AppendUint32(out, uint32(header.Len()))
	out = append(out, header.Bytes()...)
	for _, path := range [][][]float64{eq.HJB.V, eq.HJB.X, eq.FPK.Lambda} {
		for _, level := range path {
			bulk := make([]byte, 8*len(level))
			encodeFloatsLoop(bulk, level)
			out = append(out, bulk...)
		}
	}
	return out
}

// writeLog keeps what it is written and the size of every write.
type writeLog struct {
	bytes.Buffer
	sizes []int
}

func (w *writeLog) Write(p []byte) (int, error) {
	w.sizes = append(w.sizes, len(p))
	return w.Buffer.Write(p)
}

// TestStreamRoundTripBitExact sends archives through the io entry points,
// Equilibrium.WriteTo and ReadEquilibrium. WriteTo hands the writer the whole
// archive in one write, its bytes equal MarshalEquilibrium's and the
// element-loop reference's, and ReadEquilibrium decodes them bit for bit
// from a reader that returns half of each request.
func TestStreamRoundTripBitExact(t *testing.T) {
	solved, err := Solve(DefaultConfig(mec.Default()), defaultWorkload())
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	for name, eq := range map[string]*Equilibrium{"special values": specialEquilibrium(), "default grid": solved} {
		t.Run(name, func(t *testing.T) {
			blob := mustMarshal(t, eq)
			var log writeLog
			n, err := eq.WriteTo(&log)
			if err != nil {
				t.Fatalf("WriteTo: %v", err)
			}
			if n != int64(len(blob)) || log.Len() != len(blob) {
				t.Fatalf("WriteTo reported %d bytes and wrote %d, the archive is %d", n, log.Len(), len(blob))
			}
			if len(log.sizes) != 1 {
				t.Errorf("WriteTo made %d writes, want 1", len(log.sizes))
			}
			if !bytes.Equal(log.Bytes(), blob) {
				t.Error("written bytes differ from MarshalEquilibrium's")
			}
			if !bytes.Equal(log.Bytes(), loopArchive(t, eq)) {
				t.Error("written bytes differ from the element-loop reference's")
			}
			back, err := ReadEquilibrium(iotest.HalfReader(&log.Buffer))
			if err != nil {
				t.Fatalf("ReadEquilibrium: %v", err)
			}
			samePathBits(t, back, eq)
			if !sameBits(reflect.ValueOf(back), reflect.ValueOf(eq)) {
				t.Error("the round trip changed a header field")
			}
		})
	}
}

// TestPortableFloatCodec runs the codec down the element-loop branch that
// hosts other than little-endian ones take: the archive bytes and the
// decoded bits are the same as on the raw-memory branch.
func TestPortableFloatCodec(t *testing.T) {
	eq := specialEquilibrium()
	blob := mustMarshal(t, eq)
	native := littleEndian
	littleEndian = false
	defer func() { littleEndian = native }()
	if !bytes.Equal(mustMarshal(t, eq), blob) {
		t.Error("MarshalEquilibrium writes different bytes")
	}
	var buf bytes.Buffer
	if _, err := eq.WriteTo(&buf); err != nil || !bytes.Equal(buf.Bytes(), blob) {
		t.Errorf("WriteTo writes different bytes (err %v)", err)
	}
	back, err := UnmarshalEquilibrium(blob)
	if err != nil {
		t.Fatalf("UnmarshalEquilibrium: %v", err)
	}
	samePathBits(t, back, eq)
}

// craftArchive frames a v2 archive around a hand-made path shape and bulk.
func craftArchive(t *testing.T, levels, width int, bulk []byte) []byte {
	t.Helper()
	eq := specialEquilibrium()
	eq.HJB, eq.FPK = &pde.HJBSolution{}, &pde.FPKSolution{}
	var header bytes.Buffer
	if err := gob.NewEncoder(&header).Encode(archiveHeader{Levels: levels, Width: width, Eq: eq}); err != nil {
		t.Fatal(err)
	}
	out := append([]byte(archiveMagic), archiveVersion)
	out = binary.LittleEndian.AppendUint32(out, uint32(header.Len()))
	return append(append(out, header.Bytes()...), bulk...)
}

// rejectedArchives holds malformed archives UnmarshalEquilibrium must refuse.
func rejectedArchives(t *testing.T) map[string][]byte {
	blob := mustMarshal(t, specialEquilibrium())
	patch := func(at int, b ...byte) []byte {
		out := append([]byte(nil), blob...)
		copy(out[at:], b)
		return out
	}
	lenAt := len(archiveMagic) + 1
	headerLen := binary.LittleEndian.Uint32(blob[lenAt:])
	bulk := blob[archivePrefix+int(headerLen):]
	// The header length counts one zero byte more, inserted before the bulk.
	padded := binary.LittleEndian.AppendUint32(append([]byte(nil), blob[:lenAt]...), headerLen+1)
	padded = append(append(append(padded, blob[archivePrefix:archivePrefix+int(headerLen)]...), 0), bulk...)
	cases := map[string][]byte{
		"truncated bulk":          blob[:len(blob)-8],
		"truncated float":         blob[:len(blob)-1],
		"one trailing byte":       append(append([]byte(nil), blob...), 0),
		"header past the end":     patch(lenAt, binary.LittleEndian.AppendUint32(nil, uint32(len(blob)))...),
		"header length max":       patch(lenAt, 0xff, 0xff, 0xff, 0xff),
		"unknown magic version":   patch(len(archiveMagic), archiveVersion+1),
		"magic only":              []byte(archiveMagic),
		"truncated prefix":        blob[:archivePrefix-1],
		"garbage header":          patch(archivePrefix, 0xff, 0xff, 0xff),
		"padded header":           padded,
		"negative levels":         craftArchive(t, -2, -3, bulk),
		"negative width":          craftArchive(t, 2, -3, bulk),
		"zero-width levels":       craftArchive(t, 1<<30, 0, nil),
		"overflowing shape":       craftArchive(t, math.MaxInt/2, 3, bulk),
		"shape and bulk disagree": craftArchive(t, 3, 3, bulk),
		"v1 of a future version":  v1Archive(t, 3, specialEquilibrium()),
		"v1 with a trailing byte": append(v1Archive(t, 1, specialEquilibrium()), 0),
		"v1 written twice":        bytes.Repeat(v1Archive(t, 1, specialEquilibrium()), 2),
	}
	return cases
}

// specialBulk is the 2×3 bulk of specialEquilibrium's archive.
func specialBulk(t *testing.T) []byte {
	blob := mustMarshal(t, specialEquilibrium())
	return blob[archivePrefix+int(binary.LittleEndian.Uint32(blob[len(archiveMagic)+1:])):]
}

// wellFormedCrafted is the crafted archive whose shape matches its bulk.
func wellFormedCrafted(t *testing.T) []byte {
	return craftArchive(t, 2, 3, specialBulk(t))
}

// TestUnmarshalEquilibriumRejects feeds the decoder every malformed archive
// (a v2 archive with one trailing byte among them), and v1 and v2 archives
// cut short.
func TestUnmarshalEquilibriumRejects(t *testing.T) {
	for name, data := range rejectedArchives(t) {
		if _, err := UnmarshalEquilibrium(data); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	if _, err := UnmarshalEquilibrium(wellFormedCrafted(t)); err != nil {
		t.Errorf("the well-formed crafted archive is rejected: %v", err)
	}
	for name, blob := range map[string][]byte{"v2": mustMarshal(t, specialEquilibrium()), "v1": v1Archive(t, 1, specialEquilibrium())} {
		if _, err := UnmarshalEquilibrium(blob); err != nil {
			t.Fatalf("%s: the whole archive is rejected: %v", name, err)
		}
		for _, cut := range []int{1, 24, len(blob) - archivePrefix, len(blob) - 1, len(blob)} {
			if _, err := UnmarshalEquilibrium(blob[:len(blob)-cut]); err == nil {
				t.Errorf("%s: the archive cut %d bytes short decoded", name, cut)
			}
		}
	}
}

// TestDecodeEquilibriumRejects drives ReadEquilibrium one byte per read: it
// refuses every malformed archive (a v2 archive with one trailing byte among
// them) and a v1 or v2 body that ends early, and passes on the reader's own
// error.
func TestDecodeEquilibriumRejects(t *testing.T) {
	read := func(r io.Reader) error {
		_, err := ReadEquilibrium(iotest.OneByteReader(r))
		return err
	}
	for name, data := range rejectedArchives(t) {
		if read(bytes.NewReader(data)) == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	if read(bytes.NewReader(wellFormedCrafted(t))) != nil {
		t.Error("the well-formed crafted archive is rejected")
	}
	for name, blob := range map[string][]byte{"v2": mustMarshal(t, specialEquilibrium()), "v1": v1Archive(t, 1, specialEquilibrium())} {
		if err := read(bytes.NewReader(blob)); err != nil {
			t.Fatalf("%s: the whole archive is rejected: %v", name, err)
		}
		for _, cut := range []int{1, 24, len(blob) - archivePrefix, len(blob) - 1, len(blob)} {
			if read(bytes.NewReader(blob[:len(blob)-cut])) == nil {
				t.Errorf("%s: a body %d bytes short decoded", name, cut)
			}
		}
		broken := errors.New("connection reset")
		err := read(io.MultiReader(bytes.NewReader(blob[:len(blob)/2]), iotest.ErrReader(broken)))
		if !errors.Is(err, broken) {
			t.Errorf("%s: a reader failing halfway: err = %v, want %v", name, err, broken)
		}
	}
}

// TestDecodeChecksShapeBeforeAllocating frames a 2×3 bulk behind a header
// that declares 48 MiB of paths: the decoder must refuse it from the prefix
// and header alone, without allocating for the declared shape.
func TestDecodeChecksShapeBeforeAllocating(t *testing.T) {
	crafted := craftArchive(t, 2<<10, 1<<10, specialBulk(t))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := UnmarshalEquilibrium(crafted)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "does not hold") {
		t.Fatalf("err = %v, want the bulk-shape refusal", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
		t.Errorf("refusing the archive allocated %d bytes", grew)
	}
}

func TestMarshalEquilibriumRejectsRaggedPaths(t *testing.T) {
	cases := map[string]func(eq *Equilibrium){
		"fewer strategy levels": func(eq *Equilibrium) { eq.HJB.X = eq.HJB.X[:1] },
		"more density levels":   func(eq *Equilibrium) { eq.FPK.Lambda = append(eq.FPK.Lambda, eq.FPK.Lambda[0]) },
		"short level":           func(eq *Equilibrium) { eq.HJB.V[1] = eq.HJB.V[1][:2] },
		"long level":            func(eq *Equilibrium) { eq.FPK.Lambda[0] = append(eq.FPK.Lambda[0], 1) },
		"empty levels": func(eq *Equilibrium) {
			eq.HJB.V, eq.HJB.X, eq.FPK.Lambda = [][]float64{{}}, [][]float64{{}}, [][]float64{{}}
		},
		"missing density": func(eq *Equilibrium) { eq.FPK = nil },
	}
	for name, mutate := range cases {
		eq := specialEquilibrium()
		mutate(eq)
		if _, err := MarshalEquilibrium(eq); err == nil {
			t.Errorf("%s: MarshalEquilibrium wrote it", name)
		}
		if _, err := eq.WriteTo(io.Discard); err == nil {
			t.Errorf("%s: WriteTo wrote it", name)
		}
	}
}

// TestWriteToMatchesMarshalEquilibrium pins the one archive encoder: both
// entry points write the same bytes, and neither keeps a warm-start chain.
func TestWriteToMatchesMarshalEquilibrium(t *testing.T) {
	eq := specialEquilibrium()
	for _, warm := range []*Equilibrium{nil, specialEquilibrium()} {
		eq.Config.WarmStart = warm
		var buf bytes.Buffer
		if _, err := eq.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		blob := mustMarshal(t, eq)
		if !bytes.Equal(buf.Bytes(), blob) {
			t.Errorf("warm start %v: WriteTo and MarshalEquilibrium write different archives", warm != nil)
		}
		back, err := UnmarshalEquilibrium(blob)
		if err != nil {
			t.Fatal(err)
		}
		if back.Config.WarmStart != nil {
			t.Errorf("warm start %v: the archive kept the warm-start chain", warm != nil)
		}
	}
}

// BenchmarkEquilibriumCodec times one default-grid archive (3 × 121 × 793
// path values) through each direction of the codec. The equilibrium stays
// live to the end, so both directions run against the same live heap: a
// decode allocates an archive's worth per op, and the GC's pace follows the
// live heap.
func BenchmarkEquilibriumCodec(b *testing.B) {
	eq, err := Solve(DefaultConfig(mec.Default()), defaultWorkload())
	if err != nil {
		b.Fatalf("Solve: %v", err)
	}
	defer runtime.KeepAlive(eq)
	blob := mustMarshal(b, eq)
	b.Run("marshal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := MarshalEquilibrium(eq); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("unmarshal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := UnmarshalEquilibrium(blob); err != nil {
				b.Fatal(err)
			}
		}
	})
}
