package store

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"

	"golatest/internal/cluster"
	"golatest/internal/core"
	"golatest/internal/stats"
)

// The v3 container, the only blob encoding on disk and on the wire: a
// length-prefixed binary body behind a gzip layer, so a warm decode
// never pays strconv:
//
//	v3: magic(4) ‖ gzip(body)
//	body: schema u32 ‖ bodySize u64 ‖ digest ‖ profile ‖ instance i64 ‖ result
//
// All integers are little-endian and fixed-width; floats are IEEE-754
// bits. Measured floats (samples, summaries, latencies, cluster eps)
// may be NaN or ±Inf and are NaN-canonicalised at encode: every NaN
// payload collapses to the one canonical quiet NaN, so two results
// equal under the digest always produce equal bytes. Plain floats —
// pair frequencies, phase-1 keys and unstable clocks — must be finite;
// the encoder refuses a result with a non-finite one. bodySize records
// the inflated body's own length, so the index's RawBytes (and the
// compression-ratio stats) come from the header alone.
//
// Each pair stores its measurements once, as the integers the simulator
// produced: six byte-shuffled columns of 8-byte integers (t_s delta from
// the previous measurement, t_e − t_s, injected ns with injectedNaN for
// NaN, SM, transition index, sync spread). The decoder rebuilds each
// measurement's Pair, LatencyMs and InjectedMs from them, and the pair's
// Samples, Injected, Kept and Outliers from those and the cluster
// labels, exactly as a campaign derives them. A result whose fields do
// not derive so (a hand-built one, say) has no encoding: the encoder
// refuses it, naming the pair and the field. Cluster labels take one
// byte each when they fit.
//
// Slices encode as a u32 tag — v3NilSlice for a nil slice, the element
// count otherwise — preserving the nil-vs-empty distinction; three
// slices (pairs, measurements, phase-1 stats) collapse empty to nil.
// Strings are u32 length prefix plus bytes; the profile key is at most
// maxProfileKey bytes. Every count is bounds-checked against the bytes
// actually remaining before anything is allocated, so a tampered
// length prefix is an invalid blob, not an allocation storm; the gzip
// layer enforces a single member, rejects trailing bytes, and bounds
// inflation by maxCanonicalBytes.
//
// Any other bytes — including the plain-JSON and gzip-JSON containers
// earlier releases wrote — are invalid blobs: a miss that deletes the
// file, after which the campaign is recomputed and re-Put as v3.

// v3Magic opens every v3 container. The first byte is outside ASCII
// and differs from both JSON's '{' and the gzip magic 0x1f, so no JSON
// or bare gzip stream is mistaken for a container.
var v3Magic = [4]byte{0xB3, 'G', 'L', '3'}

// v3NilSlice is the slice tag distinguishing nil from empty.
const v3NilSlice = ^uint32(0)

// canonicalNaN is the one NaN bit pattern v3 stores.
var canonicalNaN = math.Float64bits(math.NaN())

// maxProfileKey bounds a key's profile in bytes. It bounds the body
// header, which is what lets readV3Header index a blob from a fixed
// prefix: KeyFor and the encoder refuse a longer profile, and the
// decoder treats one as an invalid blob.
const maxProfileKey = 128

// v3HeaderSize is the longest body header: schema, body size, a
// 64-byte hex digest, a maxProfileKey-byte profile and the instance.
const v3HeaderSize = 4 + 8 + (4 + 64) + (4 + maxProfileKey) + 8

// hasV3Magic reports whether data opens with the v3 magic — the one
// sniff the parser runs before inflating anything.
func hasV3Magic(data []byte) bool { return bytes.HasPrefix(data, v3Magic[:]) }

// blobHeader is the body's leading fields: what the index reads of a
// blob, and what the parse checks against the digest it was asked for.
type blobHeader struct {
	Schema   int
	BodySize int64
	Digest   string
	Profile  string
	Instance int
}

// encoder builds a v3 body in pooled scratch. The first refused value
// latches err.
type encoder struct {
	buf   []byte
	freqs []float64 // phase-1 sort scratch
	err   error
}

var encoders = sync.Pool{New: func() any {
	return &encoder{buf: make([]byte, 0, 32<<10)}
}}

func putEncoder(e *encoder) {
	if cap(e.buf) <= maxPooledScratch {
		encoders.Put(e)
	}
}

func (e *encoder) u8(v byte)    { e.buf = append(e.buf, v) }
func (e *encoder) u32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *encoder) u64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }
func (e *encoder) i64(v int64)  { e.u64(uint64(v)) }
func (e *encoder) int(v int)    { e.u64(uint64(v)) }

func (e *encoder) str(s string) {
	e.u32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

func (e *encoder) pair(p core.Pair) {
	e.f64bits(p.InitMHz)
	e.f64bits(p.TargetMHz)
}

func (e *encoder) bool8(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}

// finite refuses NaN and ±Inf in a plain float.
func (e *encoder) finite(v float64) {
	if (math.IsNaN(v) || math.IsInf(v, 0)) && e.err == nil {
		e.err = fmt.Errorf("non-finite plain float %v", v)
	}
}

// f64bits writes a plain float's bits.
func (e *encoder) f64bits(v float64) {
	e.finite(v)
	e.u64(math.Float64bits(v))
}

// f64canon writes a measured float's bits, NaN-canonicalised.
func (e *encoder) f64canon(v float64) {
	if math.IsNaN(v) {
		e.u64(canonicalNaN)
		return
	}
	e.u64(math.Float64bits(v))
}

// count writes a slice tag: v3NilSlice for nil, else the length.
func (e *encoder) count(isNil bool, n int) {
	if isNil {
		e.u32(v3NilSlice)
	} else {
		e.u32(uint32(n))
	}
}

func (e *encoder) pairSlice(ps []core.Pair) {
	e.count(ps == nil, len(ps))
	for _, p := range ps {
		e.pair(p)
	}
}

// encodeBody renders the v3 body of a campaign result under its key
// into pooled scratch, with its size field patched to the body's
// length; release it with putEncoder. It refuses a nil result, a
// profile past maxProfileKey, a non-finite plain float, a pair whose
// fields do not derive from its measurements' integers (underived) and
// a body past maxCanonicalBytes — what the encoder renders, the decoder
// must accept and rebuild bit for bit — before the caller has written a
// byte.
func encodeBody(k Key, res *core.Result) (*encoder, error) {
	if res == nil {
		return nil, fmt.Errorf("store: nil result for %s", k)
	}
	e := encoders.Get().(*encoder)
	e.buf, e.err = e.buf[:0], nil
	if len(k.Profile) > maxProfileKey {
		e.err = fmt.Errorf("profile key of %d bytes exceeds %d", len(k.Profile), maxProfileKey)
	}
	e.writeBody(k, res)
	if e.err == nil && int64(len(e.buf)) > maxCanonicalBytes {
		e.err = fmt.Errorf("body size %d exceeds the %d-byte decode bound", len(e.buf), maxCanonicalBytes)
	}
	if e.err != nil {
		err := fmt.Errorf("store: encode %s: %w", k, e.err)
		putEncoder(e)
		return nil, err
	}
	binary.LittleEndian.PutUint64(e.buf[4:], uint64(len(e.buf)))
	return e, nil
}

// writeV3 writes the container of an encoded body to w: the magic,
// then the body through a pooled gzip writer.
func writeV3(w io.Writer, body []byte) error {
	if _, err := w.Write(v3Magic[:]); err != nil {
		return err
	}
	gz := gzipWriters.Get().(*gzip.Writer)
	gz.Reset(w)
	_, err := gz.Write(body)
	if cerr := gz.Close(); err == nil {
		err = cerr
	}
	gzipWriters.Put(gz)
	return err
}

// EncodeBlobV3 renders the v3 container — what Put writes to disk and
// the network client ships. Deterministic for a given key and build
// (fixed gzip level, canonical NaN bits, no gzip header metadata), so
// concurrent identical writers converge byte-for-byte.
func EncodeBlobV3(k Key, res *core.Result) ([]byte, error) {
	e, err := encodeBody(k, res)
	if err != nil {
		return nil, err
	}
	defer putEncoder(e)
	var buf bytes.Buffer
	if err := writeV3(&buf, e.buf); err != nil {
		return nil, fmt.Errorf("store: encode %s: %w", k, err)
	}
	return buf.Bytes(), nil
}

func (e *encoder) writeBody(k Key, res *core.Result) {
	e.u32(uint32(SchemaVersion))
	e.u64(0) // body size, patched by encodeBody
	e.str(k.Digest)
	e.str(k.Profile)
	e.int(k.Instance)

	e.str(res.DeviceName)
	e.str(res.Architecture)
	e.i64(res.CaptureHintNs)

	if p1 := res.Phase1; p1 == nil {
		e.u8(0)
	} else {
		e.u8(1)
		e.freqs = e.freqs[:0]
		for f := range p1.Stats {
			e.finite(f)
			e.freqs = append(e.freqs, f)
		}
		sortFloat64s(e.freqs)
		e.count(len(e.freqs) == 0, len(e.freqs)) // empty ⇒ nil
		for _, f := range e.freqs {
			fs := p1.Stats[f]
			e.f64bits(fs.FreqMHz)
			e.int(fs.Iter.N)
			e.f64canon(fs.Iter.Mean)
			e.f64canon(fs.Iter.Std)
		}
		e.pairSlice(p1.ValidPairs)
		e.pairSlice(p1.Excluded)
		e.count(p1.Unstable == nil, len(p1.Unstable))
		for _, v := range p1.Unstable {
			e.f64bits(v)
		}
	}

	e.count(len(res.Pairs) == 0, len(res.Pairs)) // empty ⇒ nil
	for i, pr := range res.Pairs {
		if pr == nil {
			e.u8(0)
			continue
		}
		if why := underived(pr); why != "" && e.err == nil {
			e.err = fmt.Errorf("pair %d (%v): %s", i, pr.Pair, why)
		}
		e.u8(1)
		e.writePair(pr)
	}
}

// writePair renders one pair result whose fields derive (underived
// returns ""): the measurements' integer columns and every field that
// does not derive from them.
func (e *encoder) writePair(pr *core.PairResult) {
	e.pair(pr.Pair)
	ms := pr.Measurements
	e.count(len(ms) == 0, len(ms)) // empty ⇒ nil
	var prev int64
	e.column(len(ms), func(i int) uint64 {
		d := uint64(ms[i].TsDevNs - prev)
		prev = ms[i].TsDevNs
		return d
	})
	e.column(len(ms), func(i int) uint64 { return uint64(ms[i].TeDevNs - ms[i].TsDevNs) })
	e.column(len(ms), func(i int) uint64 { ns, _ := injectedNs(ms[i].InjectedMs); return uint64(ns) })
	e.column(len(ms), func(i int) uint64 { return uint64(ms[i].SM) })
	e.column(len(ms), func(i int) uint64 { return uint64(ms[i].TransitionIndex) })
	e.column(len(ms), func(i int) uint64 { return uint64(ms[i].SyncSpreadNs) })
	e.int(pr.Attempts)
	e.int(pr.Failures)
	e.int(pr.DiscardedByThrottle)
	e.int(pr.ThrottleEvents)
	e.bool8(pr.Skipped)
	e.str(pr.SkipReason)
	if c := pr.Clusters; c == nil {
		e.u8(clustersNone)
	} else {
		if labelsFitBytes(c.Labels) {
			e.u8(clustersByteLabels)
			e.count(c.Labels == nil, len(c.Labels))
			for _, l := range c.Labels {
				e.u8(byte(l - cluster.Noise))
			}
		} else {
			e.u8(clustersWideLabels)
			e.count(c.Labels == nil, len(c.Labels))
			for _, l := range c.Labels {
				e.int(l)
			}
		}
		e.int(c.NumClusters)
		e.f64canon(c.Eps)
		e.int(c.MinPts)
	}
	s := &pr.Summary
	e.int(s.N)
	for _, v := range [...]float64{s.Mean, s.Std, s.Min, s.Q05, s.Q25, s.Median, s.Q75, s.Q95, s.Max, pr.FinalRSE} {
		e.f64canon(v)
	}
}

// column writes n 8-byte values byte-shuffled: byte 0 of every value,
// then byte 1 of every value, up to byte 7. The high bytes of small
// integers and deltas are runs of 0x00 or 0xFF, which deflate
// compresses far better than the same values laid end to end.
func (e *encoder) column(n int, v func(i int) uint64) {
	at := len(e.buf)
	e.buf = slices.Grow(e.buf, 8*n)[:at+8*n]
	col := e.buf[at:]
	for i := 0; i < n; i++ {
		x := v(i)
		for b := 0; b < 8; b++ {
			col[b*n+i] = byte(x >> (8 * b))
		}
	}
}

// Clusters tags: no clustering, or its labels as 8-byte integers, or as
// one byte each (label − cluster.Noise) when every label fits.
const (
	clustersNone = iota
	clustersWideLabels
	clustersByteLabels
)

// injectedNaN is the injected-latency column's code for NaN (no ground
// truth).
const injectedNaN = math.MinInt64

// injectedNs returns the integer nanoseconds a measurement's InjectedMs
// was derived from, and whether it was: NaN codes as injectedNaN, and a
// number must be float64(ns)/1e6 for some ns.
func injectedNs(ms float64) (int64, bool) {
	if math.IsNaN(ms) {
		return injectedNaN, true
	}
	if !(math.Abs(ms) < 9e12) { // keeps ms·1e6 inside int64
		return 0, false
	}
	ns := int64(math.Round(ms * 1e6))
	return ns, math.Float64bits(float64(ns)/1e6) == math.Float64bits(ms)
}

// injectedMsOf is injectedNs's inverse.
func injectedMsOf(ns int64) float64 {
	if ns == injectedNaN {
		return math.NaN()
	}
	return float64(ns) / 1e6
}

func latencyOf(m *core.Measurement) float64  { return m.LatencyMs }
func injectedOf(m *core.Measurement) float64 { return m.InjectedMs }

// sameFloat reports whether two measured floats store alike: equal
// bits, or both NaN.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

func samePair(a, b core.Pair) bool {
	return math.Float64bits(a.InitMHz) == math.Float64bits(b.InitMHz) &&
		math.Float64bits(a.TargetMHz) == math.Float64bits(b.TargetMHz)
}

// underived says which field of pr the decoder could not rebuild bit
// for bit from the integers the body stores, or returns "" when every
// field derives, as in every result a campaign produces.
func underived(pr *core.PairResult) string {
	switch {
	case !measurementsDerive(pr):
		return "a measurement's Pair, LatencyMs or InjectedMs does not derive from its integers"
	case !sameFloats(pr.Samples, pr.Measurements, latencyOf):
		return "Samples is not the measurements' LatencyMs"
	case !sameFloats(pr.Injected, pr.Measurements, injectedOf):
		return "Injected is not the measurements' InjectedMs"
	case !partitionDerives(pr):
		return "Kept and Outliers are not Samples partitioned by the cluster labels"
	}
	return ""
}

// measurementsDerive reports whether every measurement's Pair is the
// pair's, its LatencyMs float64(TeDevNs−TsDevNs)/1e6 and its InjectedMs
// NaN or float64(ns)/1e6 for an integer ns: what the integer columns
// rebuild.
func measurementsDerive(pr *core.PairResult) bool {
	for i := range pr.Measurements {
		m := &pr.Measurements[i]
		if _, ok := injectedNs(m.InjectedMs); !ok || !samePair(m.Pair, pr.Pair) ||
			math.Float64bits(m.LatencyMs) != math.Float64bits(float64(m.TeDevNs-m.TsDevNs)/1e6) {
			return false
		}
	}
	return true
}

// sameFloats reports whether xs is the non-nil slice of field over ms.
func sameFloats(xs []float64, ms []core.Measurement, field func(*core.Measurement) float64) bool {
	if xs == nil || len(xs) != len(ms) {
		return false
	}
	for i := range ms {
		if !sameFloat(xs[i], field(&ms[i])) {
			return false
		}
	}
	return true
}

// derivedFloats is the slice sameFloats compares against.
func derivedFloats(ms []core.Measurement, field func(*core.Measurement) float64) []float64 {
	out := make([]float64, len(ms))
	for i := range ms {
		out[i] = field(&ms[i])
	}
	return out
}

// partition splits samples the way a campaign does: by the cluster
// labels into kept (never nil) and noise (nil when there is none), or,
// without a clustering, keeps a copy of every sample. ok is false when
// the labels do not cover the samples.
func partition(samples []float64, c *cluster.Result) (kept, outliers []float64, ok bool) {
	if c == nil {
		return append([]float64(nil), samples...), nil, true
	}
	if len(c.Labels) != len(samples) {
		return nil, nil, false
	}
	kept = make([]float64, 0, len(samples))
	for i, l := range c.Labels {
		if l == cluster.Noise {
			outliers = append(outliers, samples[i])
		} else {
			kept = append(kept, samples[i])
		}
	}
	return kept, outliers, true
}

// partitionDerives reports whether pr's Kept and Outliers are
// partition(Samples, Clusters), without building it.
func partitionDerives(pr *core.PairResult) bool {
	c := pr.Clusters
	if c == nil {
		return pr.Outliers == nil && (pr.Kept == nil) == (len(pr.Samples) == 0) &&
			len(pr.Kept) == len(pr.Samples) && allSame(pr.Kept, pr.Samples)
	}
	if len(c.Labels) != len(pr.Samples) || pr.Kept == nil {
		return false
	}
	k, o := 0, 0
	for i, l := range c.Labels {
		if l == cluster.Noise {
			if o == len(pr.Outliers) || !sameFloat(pr.Outliers[o], pr.Samples[i]) {
				return false
			}
			o++
		} else {
			if k == len(pr.Kept) || !sameFloat(pr.Kept[k], pr.Samples[i]) {
				return false
			}
			k++
		}
	}
	return k == len(pr.Kept) && o == len(pr.Outliers) && (pr.Outliers == nil) == (o == 0)
}

// allSame reports whether two equal-length slices store alike.
func allSame(a, b []float64) bool {
	for i := range a {
		if !sameFloat(a[i], b[i]) {
			return false
		}
	}
	return true
}

// labelsFitBytes reports whether every label fits clustersByteLabels.
func labelsFitBytes(labels []int) bool {
	for _, l := range labels {
		if l < cluster.Noise || l > cluster.Noise+255 {
			return false
		}
	}
	return true
}

// sortFloat64s is an insertion sort: phase-1 sweeps a handful of
// frequencies, and the tiny fixed cost avoids pulling sort's
// interface machinery into the encode path.
func sortFloat64s(xs []float64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// v3Reader is the bounds-checked cursor over an inflated v3 body. The
// first malformed read latches err and turns every subsequent read
// into a cheap zero-value no-op, so decoders need no per-field error
// plumbing; strings and slices are copied out, because the backing
// buffer is pooled scratch that is recycled the moment the parse
// returns.
type v3Reader struct {
	b   []byte
	off int
	err error
}

func (r *v3Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

func (r *v3Reader) need(n int64) bool {
	if r.err != nil {
		return false
	}
	if n < 0 || int64(len(r.b)-r.off) < n {
		r.fail("truncated body: need %d bytes at offset %d of %d", n, r.off, len(r.b))
		return false
	}
	return true
}

func (r *v3Reader) u8() byte {
	if !r.need(1) {
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *v3Reader) u32() uint32 {
	if !r.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *v3Reader) u64() uint64 {
	if !r.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *v3Reader) i64() int64   { return int64(r.u64()) }
func (r *v3Reader) int() int     { return int(r.u64()) }
func (r *v3Reader) f64() float64 { return math.Float64frombits(r.u64()) }

// count reads a slice tag and validates it against the bytes actually
// remaining: a slice of n elements of elemSize bytes each must fit in
// the unread body. Returns -1 for the nil tag, and after any error.
func (r *v3Reader) count(elemSize int64) int {
	tag := r.u32()
	if r.err != nil || tag == v3NilSlice {
		return -1
	}
	n := int64(tag)
	if n > int64(len(r.b)-r.off)/elemSize {
		r.fail("slice count %d overruns the %d-byte body", n, len(r.b))
		return -1
	}
	return int(n)
}

func (r *v3Reader) str() string {
	n := r.u32()
	if !r.need(int64(n)) {
		return ""
	}
	s := string(r.b[r.off : r.off+int(n)]) // copies out of the pooled buffer
	r.off += int(n)
	return s
}

// column returns the byte-shuffled column of n values at the cursor
// (see encoder.column); unshuffle reads value i of it.
func (r *v3Reader) column(n int) []byte {
	if !r.need(8 * int64(n)) {
		return nil
	}
	c := r.b[r.off : r.off+8*n]
	r.off += 8 * n
	return c
}

func unshuffle(col []byte, n, i int) uint64 {
	var x uint64
	for b := 7; b >= 0; b-- {
		x = x<<8 | uint64(col[b*n+i])
	}
	return x
}

func (r *v3Reader) pair() core.Pair {
	return core.Pair{InitMHz: r.f64(), TargetMHz: r.f64()}
}

func (r *v3Reader) pairSlice() []core.Pair {
	n := r.count(16)
	if n < 0 {
		return nil
	}
	out := make([]core.Pair, n)
	for i := range out {
		out[i] = r.pair()
	}
	return out
}

// decodeV3Header reads the body's leading fields.
func decodeV3Header(r *v3Reader) blobHeader {
	h := blobHeader{Schema: int(r.u32()), BodySize: r.i64()}
	if r.err == nil && (h.BodySize < 0 || h.BodySize > maxCanonicalBytes) {
		r.fail("body size %d outside [0, %d]", h.BodySize, maxCanonicalBytes)
	}
	h.Digest = r.str()
	h.Profile = r.str()
	if r.err == nil && len(h.Profile) > maxProfileKey {
		r.fail("profile key of %d bytes exceeds %d", len(h.Profile), maxProfileKey)
	}
	h.Instance = r.int()
	return h
}

// v3HeaderInput bounds the container prefix readV3Header inflates.
// Even coded as 15-bit literals behind a maximal dynamic-Huffman block
// header (~280 bytes), the v3HeaderSize header bytes fit in it.
// Bounding the input bounds the inflate work: flate yields output only
// at a block end or a full 32 KiB window, so an unbounded stream would
// inflate that much per blob.
const v3HeaderInput = 1 << 10

// readV3Header reads only the header fields of the v3 container
// streaming from r — the index's view of a blob. It inflates at most
// v3HeaderInput bytes of the container and checks neither the gzip
// checksum nor the rest of the body; only parseBlob vouches for a
// whole blob.
func readV3Header(r io.Reader) (blobHeader, error) {
	var in [v3HeaderInput]byte
	n, err := io.ReadFull(r, in[:])
	if err != nil && err != io.ErrUnexpectedEOF {
		return blobHeader{}, err
	}
	if !hasV3Magic(in[:n]) {
		return blobHeader{}, errors.New("not a v3 container")
	}
	gz := gzipReaders.Get().(*gzip.Reader)
	defer gzipReaders.Put(gz)
	if err := gz.Reset(bytes.NewReader(in[len(v3Magic):n])); err != nil {
		return blobHeader{}, err
	}
	// A truncated input ends the inflate early with an error, after
	// flate has flushed everything it decoded; the header parse below
	// decides whether that was enough.
	var head [v3HeaderSize]byte
	m, _ := io.ReadFull(gz, head[:])
	vr := &v3Reader{b: head[:m]}
	h := decodeV3Header(vr)
	return h, vr.err
}

// decodeV3Body parses an inflated v3 body into its header and result.
func decodeV3Body(body []byte) (blobHeader, *core.Result, error) {
	r := &v3Reader{b: body}
	h := decodeV3Header(r)

	res := &core.Result{
		DeviceName:    r.str(),
		Architecture:  r.str(),
		CaptureHintNs: r.i64(),
	}

	if r.u8() != 0 {
		p1 := &core.Phase1Result{}
		n := r.count(32) // 8+8+8+8 per stat
		p1.Stats = make(map[float64]core.FreqStats, max(n, 0))
		for i := 0; i < n; i++ {
			fs := core.FreqStats{FreqMHz: r.f64()}
			fs.Iter = stats.MeanStd{N: r.int(), Mean: r.f64(), Std: r.f64()}
			p1.Stats[fs.FreqMHz] = fs
		}
		p1.ValidPairs = r.pairSlice()
		p1.Excluded = r.pairSlice()
		if n := r.count(8); n >= 0 {
			p1.Unstable = make([]float64, n)
			for i := range p1.Unstable {
				p1.Unstable[i] = r.f64()
			}
		}
		res.Phase1 = p1
	}

	// A pair is at minimum a presence byte; deeper counts are checked
	// against the remaining bytes as they stream past.
	if n := r.count(1); n > 0 {
		res.Pairs = make([]*core.PairResult, n)
		for i := 0; i < n && r.err == nil; i++ {
			if r.u8() != 0 {
				res.Pairs[i] = decodePair(r)
			}
		}
	}

	if r.err != nil {
		return blobHeader{}, nil, r.err
	}
	if r.off != len(r.b) {
		return blobHeader{}, nil, fmt.Errorf("%d trailing bytes after body", len(r.b)-r.off)
	}
	return h, res, nil
}

func decodePair(r *v3Reader) *core.PairResult {
	pr := &core.PairResult{Pair: r.pair()}
	if n := r.count(6 * 8); n > 0 {
		ts, dur, inj := r.column(n), r.column(n), r.column(n)
		sm, ti, sync := r.column(n), r.column(n), r.column(n)
		pr.Measurements = make([]core.Measurement, n)
		var t int64
		for j := range pr.Measurements {
			t += int64(unshuffle(ts, n, j))
			d := int64(unshuffle(dur, n, j))
			pr.Measurements[j] = core.Measurement{
				Pair:            pr.Pair,
				LatencyMs:       float64(d) / 1e6,
				TsDevNs:         t,
				TeDevNs:         t + d,
				SM:              int(unshuffle(sm, n, j)),
				TransitionIndex: int(unshuffle(ti, n, j)),
				InjectedMs:      injectedMsOf(int64(unshuffle(inj, n, j))),
				SyncSpreadNs:    int64(unshuffle(sync, n, j)),
			}
		}
	}
	pr.Samples = derivedFloats(pr.Measurements, latencyOf)
	pr.Injected = derivedFloats(pr.Measurements, injectedOf)
	pr.Attempts = r.int()
	pr.Failures = r.int()
	pr.DiscardedByThrottle = r.int()
	pr.ThrottleEvents = r.int()
	pr.Skipped = r.u8() != 0
	pr.SkipReason = r.str()
	switch tag := r.u8(); tag {
	case clustersNone:
	case clustersByteLabels, clustersWideLabels:
		c := &cluster.Result{}
		if tag == clustersByteLabels {
			if n := r.count(1); n >= 0 {
				c.Labels = make([]int, n)
				for j := range c.Labels {
					c.Labels[j] = int(r.u8()) + cluster.Noise
				}
			}
		} else if n := r.count(8); n >= 0 {
			c.Labels = make([]int, n)
			for j := range c.Labels {
				c.Labels[j] = r.int()
			}
		}
		c.NumClusters = r.int()
		c.Eps = r.f64()
		c.MinPts = r.int()
		pr.Clusters = c
	default:
		r.fail("unknown clusters tag %d", tag)
	}
	var ok bool
	if pr.Kept, pr.Outliers, ok = partition(pr.Samples, pr.Clusters); !ok {
		r.fail("%d cluster labels for %d samples", len(pr.Clusters.Labels), len(pr.Samples))
	}
	s := &pr.Summary
	s.N = r.int()
	for _, v := range [...]*float64{&s.Mean, &s.Std, &s.Min, &s.Q05, &s.Q25, &s.Median, &s.Q75, &s.Q95, &s.Max, &pr.FinalRSE} {
		*v = r.f64()
	}
	return pr
}

// inflateV3 inflates the gzip stream after the magic into the pooled
// scratch buffer under the container's rails: single member (in the
// default multistream mode a second concatenated member would be
// appended silently, letting padding hide behind a valid digest),
// bounded inflation, no trailing bytes. The returned buffer must be
// released with putDecodeBuf once the parse has copied everything it
// keeps.
func inflateV3(data []byte) (*bytes.Buffer, error) {
	r := bytes.NewReader(data[len(v3Magic):])
	gz := gzipReaders.Get().(*gzip.Reader)
	if err := gz.Reset(r); err != nil {
		gzipReaders.Put(gz)
		return nil, err
	}
	gz.Multistream(false)
	buf := decodeBufs.Get().(*bytes.Buffer)
	buf.Reset()
	// ReadFrom drains the member to EOF, which forces the gzip footer
	// read and its CRC check; the limit turns a decompression bomb into
	// an invalid blob instead of an allocation storm.
	_, rerr := buf.ReadFrom(io.LimitReader(gz, maxCanonicalBytes+1))
	gz.Close()
	gzipReaders.Put(gz)
	if rerr != nil {
		putDecodeBuf(buf)
		return nil, rerr
	}
	if int64(buf.Len()) > maxCanonicalBytes {
		putDecodeBuf(buf)
		return nil, fmt.Errorf("body inflates past %d bytes", maxCanonicalBytes)
	}
	// flate never reads past the final block and gzip reads exactly the
	// 8-byte trailer, so whatever remains in r trails the container.
	if r.Len() != 0 {
		putDecodeBuf(buf)
		return nil, fmt.Errorf("%d trailing bytes after container", r.Len())
	}
	return buf, nil
}
