package surrogate

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"

	"repro/internal/engine"
)

// answerVersion is the format version an encoded answer leads with.
const answerVersion = 1

// answerHead opens every encoded answer: the version member, then the
// summary's members in declaration order.
const answerHead = `{"answer":1,`

// answerRecord is the JSON shape of an encoded answer: the version first,
// then the summary's fields in declaration order.
type answerRecord struct {
	Version int `json:"answer"`
	Summary
}

// Summarize builds the exact answer of a solved equilibrium: its convergence
// diagnostics and the five series SampleEquilibrium samples, with no error
// bound.
func Summarize(eq *engine.Equilibrium) *Summary {
	node, times := SampleEquilibrium(eq)
	return &Summary{
		Converged:     node.Converged,
		Iterations:    node.Iterations,
		Residual:      node.Residual,
		Time:          times,
		Price:         node.Price,
		MeanControl:   node.MeanControl,
		MeanRemaining: node.MeanRemaining,
		SharerFrac:    node.SharerFrac,
	}
}

// Answer is one answer in the form every rung of the serving ladder below
// the surrogate table holds, stores and ships, and every /v1/solve body is
// written from: its encoded record, rendered once, and the few values the
// ladder reads without parsing the series. An Answer is immutable, so rungs
// and requests share it.
type Answer struct {
	record     []byte
	tail       int // offset of `,"error_bound":…}`, or of the closing brace
	converged  bool
	iterations int
	finalPrice float64
}

// Record returns the encoded answer record, the bytes store records and
// peer-fill bodies carry. It is shared: callers must not modify it.
func (a *Answer) Record() []byte { return a.record }

// Members splits the record after its version member: members runs from
// `"converged"` through the `"sharer_frac"` series, and tail is the rest of
// the record, `}` or `,"error_bound":…}`. A member inserted between the two
// lands where a struct field declared before ErrorBound encodes.
func (a *Answer) Members() (members, tail []byte) {
	return a.record[len(answerHead):a.tail], a.record[a.tail:]
}

// Converged reports whether the best-response iteration converged.
func (a *Answer) Converged() bool { return a.converged }

// Iterations is the number of best-response iterations the solve ran.
func (a *Answer) Iterations() int { return a.iterations }

// FinalPrice is the last price sample, the last time level's price; 0 when
// the answer has no samples.
func (a *Answer) FinalPrice() float64 { return a.finalPrice }

// EncodeAnswer renders an answer once as the versioned JSON record that
// store records and peer-fill bodies carry and /v1/solve bodies are written
// from. JSON writes each float64 in its
// shortest round-tripping form, so a decoded answer serves the same bytes as
// the one encoded. A non-finite value does not encode.
func EncodeAnswer(s *Summary) (*Answer, error) {
	data, err := json.Marshal(answerRecord{Version: answerVersion, Summary: *s})
	if err != nil {
		return nil, fmt.Errorf("surrogate: encode answer: %w", err)
	}
	a := &Answer{record: data, tail: len(data) - 1, converged: s.Converged, iterations: s.Iterations}
	if s.ErrorBound != 0 {
		a.tail = bytes.LastIndex(data, []byte(`,"error_bound":`))
	}
	if n := len(s.Price); n > 0 {
		a.finalPrice = s.Price[n-1]
	}
	return a, nil
}

// errNotCanonical refuses a record that is not byte for byte what
// EncodeAnswer writes.
var errNotCanonical = errors.New("surrogate: answer record is not in canonical form")

// DecodeAnswer validates one encoded answer and keeps data as its record. It
// accepts exactly the bytes EncodeAnswer writes: a record of another
// version, with series of unequal length or more samples than
// SampleEquilibrium takes, or in any other spelling of the same JSON
// (whitespace, key order or case, number form, unknown or repeated keys) is
// refused. It scans the record's fixed grammar
//
//	{"answer":1,"converged":B,"iterations":I,"residual":F,"time":S,
//	 "price":S,"mean_control":S,"mean_remaining":S,"sharer_frac":S
//	 [,"error_bound":F]}
//
// where a series S is null or a bracketed list of numbers, and it checks
// each number by parsing it and comparing it with the rendering EncodeAnswer
// gives the parsed value; a zero error bound is never written.
// FuzzDecodeAnswer pins the accepted set against a json.Unmarshal decoder
// that re-encodes what it decoded.
func DecodeAnswer(data []byte) (*Answer, error) {
	sc := answerScanner{data: data}
	a := &Answer{record: data}
	sc.expect(`{"answer":`)
	if v := sc.integer(); sc.err == nil && v != answerVersion {
		return nil, fmt.Errorf("surrogate: answer version %d, want %d", v, answerVersion)
	}
	sc.expect(`,"converged":`)
	a.converged = sc.boolean()
	sc.expect(`,"iterations":`)
	a.iterations = sc.integer()
	sc.expect(`,"residual":`)
	sc.number()
	sc.expect(`,"time":`)
	samples, _ := sc.series()
	for _, name := range [...]string{`,"price":`, `,"mean_control":`, `,"mean_remaining":`, `,"sharer_frac":`} {
		sc.expect(name)
		n, last := sc.series()
		if sc.err == nil && n != samples {
			return nil, fmt.Errorf("surrogate: answer series of %d samples on a %d-sample time grid", n, samples)
		}
		if name == `,"price":` {
			a.finalPrice = last
		}
	}
	a.tail = sc.pos
	if sc.accept(`,"error_bound":`) {
		if bound := sc.number(); bound == 0 {
			sc.fail()
		}
	}
	sc.expect(`}`)
	if sc.err == nil && sc.pos != len(data) {
		sc.fail()
	}
	if sc.err != nil {
		return nil, sc.err
	}
	return a, nil
}

// answerScanner reads an encoded answer left to right. The first mismatch
// sets err, after which every read is a no-op returning zero.
type answerScanner struct {
	data []byte
	pos  int
	err  error
}

func (sc *answerScanner) fail() {
	if sc.err == nil {
		sc.err = errNotCanonical
	}
}

// accept consumes lit if the input continues with it.
func (sc *answerScanner) accept(lit string) bool {
	end := sc.pos + len(lit)
	if sc.err != nil || end > len(sc.data) || string(sc.data[sc.pos:end]) != lit {
		return false
	}
	sc.pos = end
	return true
}

// expect consumes lit or fails.
func (sc *answerScanner) expect(lit string) {
	if !sc.accept(lit) {
		sc.fail()
	}
}

func (sc *answerScanner) boolean() bool {
	if sc.accept("true") {
		return true
	}
	if !sc.accept("false") {
		sc.fail()
	}
	return false
}

// Byte classes of the number tokens: an int is made of integerBytes, a
// float of numberBytes.
const (
	integerBytes = 1 << iota
	numberBytes
)

var byteClass = func() (c [256]uint8) {
	for b := '0'; b <= '9'; b++ {
		c[b] = integerBytes | numberBytes
	}
	c['-'] = integerBytes | numberBytes
	for _, b := range "+.eE" {
		c[b] = numberBytes
	}
	return c
}()

// maxNumberLen bounds a rendered float64 ("-0.0000012345678901234567" is
// 25 bytes) and int; a longer token cannot be canonical.
const maxNumberLen = 32

// token consumes the longest run of bytes of class, which must hold between
// 1 and maxNumberLen bytes.
func (sc *answerScanner) token(class uint8) []byte {
	if sc.err != nil {
		return nil
	}
	data, start := sc.data, sc.pos
	end := start
	for end < len(data) && byteClass[data[end]]&class != 0 {
		end++
	}
	if n := end - start; n == 0 || n > maxNumberLen {
		sc.fail()
		return nil
	}
	sc.pos = end
	return data[start:end]
}

// integer scans one int in strconv's decimal rendering.
func (sc *answerScanner) integer() int {
	tok := sc.token(integerBytes)
	if sc.err != nil {
		return 0
	}
	v, err := strconv.ParseInt(string(tok), 10, strconv.IntSize)
	var buf [maxNumberLen]byte
	if err != nil || !bytes.Equal(strconv.AppendInt(buf[:0], v, 10), tok) {
		sc.fail()
		return 0
	}
	return int(v)
}

// number scans one float64 in EncodeAnswer's rendering.
func (sc *answerScanner) number() float64 {
	tok := sc.token(numberBytes)
	if sc.err != nil {
		return 0
	}
	v, err := strconv.ParseFloat(string(tok), 64)
	var buf [maxNumberLen]byte
	if err != nil || !bytes.Equal(appendJSONFloat(buf[:0], v), tok) {
		sc.fail()
		return 0
	}
	return v
}

// series scans null or a bracketed list of numbers and returns its length
// and last element. A list longer than SampleEquilibrium's samples fails as
// soon as it gets there.
func (sc *answerScanner) series() (n int, last float64) {
	if sc.accept("null") || sc.accept("[]") {
		return 0, 0
	}
	sc.expect("[")
	for sc.err == nil {
		last = sc.number()
		if n++; n > maxPathSamples+1 {
			sc.err = fmt.Errorf("surrogate: answer has more than %d samples", maxPathSamples+1)
		}
		if sc.err != nil || sc.pos == len(sc.data) {
			break
		}
		sc.pos++
		switch sc.data[sc.pos-1] {
		case ']':
			return n, last
		case ',':
			continue
		}
		sc.fail()
	}
	sc.fail()
	return 0, 0
}

// appendJSONFloat appends f as encoding/json writes a float64: the shortest
// round-tripping digits, in exponent form below 1e-6 and from 1e21 in
// magnitude, with a one-digit negative exponent unpadded.
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}
