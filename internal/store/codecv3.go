package store

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"

	"golatest/internal/core"
)

// The v3 container, the only blob format on disk and on the wire. The
// *contract* stays on the canonical JSON envelope — the digest, the
// ETag, SchemaVersion, and the envelope-level validation are all
// defined over it — but the payload travels as a length-prefixed binary
// section, so a warm decode never pays strconv:
//
//	v3: magic(4) ‖ gzip(body)
//	body: schema u32 ‖ canonicalSize u64 ‖ envelope fields ‖ result
//
// All integers are little-endian and fixed-width; floats are IEEE-754
// bits. Float fields that the canonical envelope spells through the f64
// codec are NaN-canonicalised at encode (every NaN payload collapses to
// the one canonical quiet NaN), mirroring the single "NaN" spelling of
// the JSON, so two results equal under the digest always produce equal
// bytes. canonicalSize records the size of the canonical JSON the body
// corresponds to, so the index's RawBytes (and the compression-ratio
// stats) never require rendering the JSON on a read.
//
// Slices encode as a u32 tag — v3NilSlice for a nil slice, the element
// count otherwise — preserving the canonical encoding's nil-vs-empty
// distinction ([]f64 null vs []); the three append-built slices of the
// canonical form (pairs, measurements, phase-1 stats) collapse empty
// to nil exactly as encodeResult always has. Strings are u32 length
// prefix plus bytes. Every count is bounds-checked against the bytes
// actually remaining before anything is allocated, so a tampered
// length prefix is an invalid blob, not an allocation storm; the gzip
// layer enforces a single member, rejects trailing bytes, and bounds
// inflation by maxCanonicalBytes.
//
// Any other bytes — including the plain-JSON and gzip-JSON containers
// earlier releases wrote — are invalid blobs: a miss that deletes the
// file, after which the campaign is recomputed and re-Put as v3.

// v3Magic opens every v3 container. The first byte is outside ASCII
// and differs from both the canonical envelope's '{' and the gzip magic
// 0x1f, so no JSON or bare gzip stream is mistaken for a container.
var v3Magic = [4]byte{0xB3, 'G', 'L', '3'}

// v3NilSlice is the slice tag distinguishing nil from empty.
const v3NilSlice = ^uint32(0)

// canonicalNaN is the one NaN bit pattern v3 stores: the value the
// canonical envelope's "NaN" spelling stands for.
var canonicalNaN = math.Float64bits(math.NaN())

// hasV3Magic reports whether data opens with the v3 magic — the one
// sniff the parser runs before inflating anything.
func hasV3Magic(data []byte) bool { return bytes.HasPrefix(data, v3Magic[:]) }

// appender is pooled write scratch for the v3 body: values are
// appended to buf and flushed to w in bulk, one write per
// scratch-buffer fill.
type appender struct {
	w   io.Writer
	buf []byte
	err error
}

var appenders = sync.Pool{New: func() any {
	return &appender{buf: make([]byte, 0, 32<<10)}
}}

func getAppender(w io.Writer) *appender {
	a := appenders.Get().(*appender)
	a.w, a.buf, a.err = w, a.buf[:0], nil
	return a
}

func putAppender(a *appender) {
	a.w = nil
	appenders.Put(a)
}

// flush drains buf into w, latching the first write error.
func (a *appender) flush() {
	if len(a.buf) == 0 {
		return
	}
	if a.err == nil {
		if _, err := a.w.Write(a.buf); err != nil {
			a.err = err
		}
	}
	a.buf = a.buf[:0]
}

// grow makes room for need more bytes, flushing if the scratch would
// otherwise spill past its capacity (oversized single values simply
// extend the buffer; the pool cap is advisory, not a correctness rail).
func (a *appender) grow(need int) {
	if len(a.buf)+need > cap(a.buf) {
		a.flush()
	}
}

// total flushes what is left and returns the first write error.
func (a *appender) total() error {
	a.flush()
	return a.err
}

func (a *appender) byte(b byte) {
	a.grow(1)
	a.buf = append(a.buf, b)
}

func (a *appender) raw(s string) {
	a.grow(len(s))
	a.buf = append(a.buf, s...)
}

// binary append helpers on the pooled appender.

func (a *appender) u8(v byte) { a.byte(v) }

func (a *appender) u32le(v uint32) {
	a.grow(4)
	a.buf = binary.LittleEndian.AppendUint32(a.buf, v)
}

func (a *appender) u64le(v uint64) {
	a.grow(8)
	a.buf = binary.LittleEndian.AppendUint64(a.buf, v)
}

func (a *appender) i64le(v int64) { a.u64le(uint64(v)) }

// f64bits writes raw IEEE-754 bits (plain float fields, always finite
// past the canonical sizing pass).
func (a *appender) f64bits(v float64) { a.u64le(math.Float64bits(v)) }

// f64canon writes NaN-canonicalised bits (fields under the f64 codec).
func (a *appender) f64canon(v float64) {
	if math.IsNaN(v) {
		a.u64le(canonicalNaN)
		return
	}
	a.u64le(math.Float64bits(v))
}

func (a *appender) v3String(s string) {
	a.u32le(uint32(len(s)))
	a.raw(s)
}

func (a *appender) v3F64Slice(xs []float64) {
	if xs == nil {
		a.u32le(v3NilSlice)
		return
	}
	a.u32le(uint32(len(xs)))
	for _, v := range xs {
		a.f64canon(v)
	}
}

func (a *appender) v3PairValue(p core.Pair) {
	a.f64bits(p.InitMHz)
	a.f64bits(p.TargetMHz)
}

func (a *appender) v3PairSlice(ps []core.Pair) {
	if ps == nil {
		a.u32le(v3NilSlice)
		return
	}
	a.u32le(uint32(len(ps)))
	for _, p := range ps {
		a.v3PairValue(p)
	}
}

// encodeBlobV3To streams the v3 container of a campaign result into w
// (typically the atomic-rename staging file or a network body) and
// returns the canonical size for the index's RawBytes. Two passes:
// EncodeBlob renders the canonical JSON first — which both sizes
// RawBytes and enforces JSON-encodability, so v3 accepts exactly the
// results the canonical envelope can express — then the binary body
// streams through the pooled appender and the pooled gzip writer.
func encodeBlobV3To(w io.Writer, k Key, res *core.Result) (int64, error) {
	canon, err := EncodeBlob(k, res)
	if err != nil {
		return 0, err
	}
	rawBytes := int64(len(canon))
	if _, err := w.Write(v3Magic[:]); err != nil {
		return rawBytes, fmt.Errorf("store: encode %s: %w", k, err)
	}
	gz := gzipWriters.Get().(*gzip.Writer)
	gz.Reset(w)
	a := getAppender(gz)
	encodeV3Body(a, k, res, rawBytes)
	aerr := a.total()
	putAppender(a)
	cerr := gz.Close()
	gzipWriters.Put(gz)
	if aerr == nil {
		aerr = cerr
	}
	if aerr != nil {
		return rawBytes, fmt.Errorf("store: encode %s: %w", k, aerr)
	}
	return rawBytes, nil
}

// EncodeBlobV3 renders the v3 container — what Put writes to disk and
// the network client ships. Deterministic for a given key and build
// (fixed gzip level, canonical NaN bits, no gzip header metadata), so
// concurrent identical writers converge byte-for-byte.
func EncodeBlobV3(k Key, res *core.Result) ([]byte, error) {
	var buf bytes.Buffer
	if _, err := encodeBlobV3To(&buf, k, res); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func encodeV3Body(a *appender, k Key, res *core.Result, rawBytes int64) {
	a.u32le(uint32(SchemaVersion))
	a.u64le(uint64(rawBytes))
	a.v3String(k.Digest)
	a.v3String(k.Profile)
	a.i64le(int64(k.Instance))

	a.v3String(res.DeviceName)
	a.v3String(res.Architecture)
	a.i64le(res.CaptureHintNs)

	if res.Phase1 == nil {
		a.u8(0)
	} else {
		a.u8(1)
		p1 := res.Phase1
		if len(p1.Stats) == 0 {
			a.u32le(v3NilSlice) // append-built in the canonical form: empty ⇒ null
		} else {
			freqs := make([]float64, 0, len(p1.Stats))
			for f := range p1.Stats {
				freqs = append(freqs, f)
			}
			sortFloat64s(freqs)
			a.u32le(uint32(len(freqs)))
			for _, f := range freqs {
				fs := p1.Stats[f]
				a.f64bits(fs.FreqMHz)
				a.i64le(int64(fs.Iter.N))
				a.f64canon(fs.Iter.Mean)
				a.f64canon(fs.Iter.Std)
				a.bool8(fs.Normalish)
			}
		}
		a.v3PairSlice(p1.ValidPairs)
		a.v3PairSlice(p1.Excluded)
		if p1.Unstable == nil {
			a.u32le(v3NilSlice)
		} else {
			a.u32le(uint32(len(p1.Unstable)))
			for _, v := range p1.Unstable {
				a.f64bits(v)
			}
		}
	}

	if len(res.Pairs) == 0 {
		a.u32le(v3NilSlice) // append-built: empty ⇒ null
		return
	}
	a.u32le(uint32(len(res.Pairs)))
	for _, pr := range res.Pairs {
		if pr == nil {
			a.u8(0)
			continue
		}
		a.u8(1)
		a.v3PairValue(pr.Pair)
		if len(pr.Measurements) == 0 {
			a.u32le(v3NilSlice) // append-built: empty ⇒ null
		} else {
			a.u32le(uint32(len(pr.Measurements)))
			for i := range pr.Measurements {
				m := &pr.Measurements[i]
				a.v3PairValue(m.Pair)
				a.f64canon(m.LatencyMs)
				a.i64le(m.TsDevNs)
				a.i64le(m.TeDevNs)
				a.i64le(int64(m.SM))
				a.i64le(int64(m.TransitionIndex))
				a.f64canon(m.InjectedMs)
				a.i64le(m.SyncSpreadNs)
			}
		}
		a.v3F64Slice(pr.Samples)
		a.v3F64Slice(pr.Injected)
		a.i64le(int64(pr.Attempts))
		a.i64le(int64(pr.Failures))
		a.i64le(int64(pr.DiscardedByThrottle))
		a.i64le(int64(pr.ThrottleEvents))
		a.bool8(pr.Skipped)
		a.v3String(pr.SkipReason)
		a.v3F64Slice(pr.Kept)
		a.v3F64Slice(pr.Outliers)
		if pr.Clusters == nil {
			a.u8(0)
		} else {
			a.u8(1)
			c := pr.Clusters
			if c.Labels == nil {
				a.u32le(v3NilSlice)
			} else {
				a.u32le(uint32(len(c.Labels)))
				for _, l := range c.Labels {
					a.i64le(int64(l))
				}
			}
			a.i64le(int64(c.NumClusters))
			a.f64canon(c.Eps)
			a.i64le(int64(c.MinPts))
		}
		s := pr.Summary
		a.i64le(int64(s.N))
		a.f64canon(s.Mean)
		a.f64canon(s.Std)
		a.f64canon(s.Min)
		a.f64canon(s.Q05)
		a.f64canon(s.Q25)
		a.f64canon(s.Median)
		a.f64canon(s.Q75)
		a.f64canon(s.Q95)
		a.f64canon(s.Max)
		a.f64canon(pr.FinalRSE)
	}
}

func (a *appender) bool8(v bool) {
	if v {
		a.u8(1)
	} else {
		a.u8(0)
	}
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
func (r *v3Reader) f64() float64 { return math.Float64frombits(r.u64()) }

// count reads a slice tag and validates it against the bytes actually
// remaining: a slice of n elements of elemSize bytes each must fit in
// the unread body. Returns (-1, nil slice) for the nil tag.
func (r *v3Reader) count(elemSize int64) int {
	tag := r.u32()
	if r.err != nil {
		return 0
	}
	if tag == v3NilSlice {
		return -1
	}
	n := int64(tag)
	if elemSize > 0 && n > int64(len(r.b)-r.off)/elemSize {
		r.fail("slice count %d overruns the %d-byte body", n, len(r.b))
		return 0
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

func (r *v3Reader) f64Slice() []f64 {
	n := r.count(8)
	if n < 0 || r.err != nil {
		return nil
	}
	out := make([]f64, n)
	for i := range out {
		out[i] = f64(r.f64())
	}
	return out
}

func (r *v3Reader) pairValue() core.Pair {
	return core.Pair{InitMHz: r.f64(), TargetMHz: r.f64()}
}

func (r *v3Reader) pairSlice() []core.Pair {
	n := r.count(16)
	if n < 0 || r.err != nil {
		return nil
	}
	out := make([]core.Pair, n)
	for i := range out {
		out[i] = r.pairValue()
	}
	return out
}

// decodeV3Header reads the body's leading fields: schema, canonical
// size, digest, profile and instance.
func decodeV3Header(r *v3Reader) (*storedBlob, int64) {
	b := &storedBlob{Schema: int(r.u32())}
	rawBytes := int64(r.u64())
	if r.err == nil && (rawBytes < 0 || rawBytes > maxCanonicalBytes) {
		r.fail("canonical size %d outside [0, %d]", rawBytes, maxCanonicalBytes)
	}
	b.Digest = r.str()
	b.Profile = r.str()
	b.Instance = int(r.i64())
	return b, rawBytes
}

// v3HeaderInput bounds the container prefix readV3Header inflates. The
// header fields are the body's first ~100 bytes; even coded as 15-bit
// literals behind a maximal dynamic-Huffman block header (~280 bytes)
// they fit in about half of it. Bounding the input bounds the inflate
// work: flate yields output only at a block end or a full 32 KiB
// window, so an unbounded stream would inflate that much per blob.
const v3HeaderInput = 1 << 10

// readV3Header reads only the header fields of the v3 container
// streaming from r — the index's view of a blob. It inflates at most
// v3HeaderInput bytes of the container and checks neither the gzip
// checksum nor the rest of the body; only parseBlob vouches for a
// whole blob.
func readV3Header(r io.Reader) (*storedBlob, int64, error) {
	var in [v3HeaderInput]byte
	n, err := io.ReadFull(r, in[:])
	if err != nil && err != io.ErrUnexpectedEOF {
		return nil, 0, err
	}
	if !hasV3Magic(in[:n]) {
		return nil, 0, errors.New("not a v3 container")
	}
	gz := gzipReaders.Get().(*gzip.Reader)
	defer gzipReaders.Put(gz)
	if err := gz.Reset(bytes.NewReader(in[len(v3Magic):n])); err != nil {
		return nil, 0, err
	}
	// The header fields take 92 bytes plus the profile key. A truncated
	// input ends the inflate early with an error, after flate has
	// flushed everything it decoded; the header parse below decides
	// whether that was enough.
	var head [256]byte
	m, _ := io.ReadFull(gz, head[:])
	vr := &v3Reader{b: head[:m]}
	b, rawBytes := decodeV3Header(vr)
	return b, rawBytes, vr.err
}

// decodeV3Body parses an inflated v3 body into the envelope the shared
// schema/digest checks run over.
func decodeV3Body(body []byte) (*storedBlob, int64, error) {
	r := &v3Reader{b: body}
	b, rawBytes := decodeV3Header(r)

	sr := &b.Result
	sr.DeviceName = r.str()
	sr.Architecture = r.str()
	sr.CaptureHintNs = r.i64()

	if r.u8() != 0 {
		p1 := &storedPhase1{}
		if n := r.count(33); n >= 0 && r.err == nil { // 8+8+8+8+1 per stat
			p1.Stats = make([]storedFreqStats, n)
			for i := range p1.Stats {
				p1.Stats[i] = storedFreqStats{
					FreqMHz:   r.f64(),
					N:         int(r.i64()),
					Mean:      f64(r.f64()),
					Std:       f64(r.f64()),
					Normalish: r.u8() != 0,
				}
			}
		}
		p1.ValidPairs = r.pairSlice()
		p1.Excluded = r.pairSlice()
		if n := r.count(8); n >= 0 && r.err == nil {
			p1.Unstable = make([]float64, n)
			for i := range p1.Unstable {
				p1.Unstable[i] = r.f64()
			}
		}
		sr.Phase1 = p1
	}

	// A pair is at minimum a presence byte; deeper counts are checked
	// against the remaining bytes as they stream past.
	if n := r.count(1); n >= 0 && r.err == nil {
		sr.Pairs = make([]*storedPair, 0, n)
		for i := 0; i < n && r.err == nil; i++ {
			if r.u8() == 0 {
				sr.Pairs = append(sr.Pairs, nil)
				continue
			}
			sp := &storedPair{Pair: r.pairValue()}
			if mn := r.count(72); mn >= 0 && r.err == nil { // 16+8*7 per measurement
				sp.Measurements = make([]storedMeasurement, mn)
				for j := range sp.Measurements {
					sp.Measurements[j] = storedMeasurement{
						Pair:            r.pairValue(),
						LatencyMs:       f64(r.f64()),
						TsDevNs:         r.i64(),
						TeDevNs:         r.i64(),
						SM:              int(r.i64()),
						TransitionIndex: int(r.i64()),
						InjectedMs:      f64(r.f64()),
						SyncSpreadNs:    r.i64(),
					}
				}
			}
			sp.Samples = r.f64Slice()
			sp.Injected = r.f64Slice()
			sp.Attempts = int(r.i64())
			sp.Failures = int(r.i64())
			sp.DiscardedByThrottle = int(r.i64())
			sp.ThrottleEvents = int(r.i64())
			sp.Skipped = r.u8() != 0
			sp.SkipReason = r.str()
			sp.Kept = r.f64Slice()
			sp.Outliers = r.f64Slice()
			if r.u8() != 0 {
				sc := &storedClusters{}
				if ln := r.count(8); ln >= 0 && r.err == nil {
					sc.Labels = make([]int, ln)
					for j := range sc.Labels {
						sc.Labels[j] = int(r.i64())
					}
				}
				sc.NumClusters = int(r.i64())
				sc.Eps = f64(r.f64())
				sc.MinPts = int(r.i64())
				sp.Clusters = sc
			}
			sp.Summary = storedSummary{
				N: int(r.i64()), Mean: f64(r.f64()), Std: f64(r.f64()), Min: f64(r.f64()),
				Q05: f64(r.f64()), Q25: f64(r.f64()), Median: f64(r.f64()),
				Q75: f64(r.f64()), Q95: f64(r.f64()), Max: f64(r.f64()),
			}
			sp.FinalRSE = f64(r.f64())
			sr.Pairs = append(sr.Pairs, sp)
		}
	}

	if r.err != nil {
		return nil, 0, r.err
	}
	if r.off != len(r.b) {
		return nil, 0, fmt.Errorf("%d trailing bytes after body", len(r.b)-r.off)
	}
	return b, rawBytes, nil
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
