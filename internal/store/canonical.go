package store

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"
	"unicode/utf8"

	"golatest/internal/core"
)

// This file is the hand-rolled canonical envelope writer: it renders
// the exact bytes of json.MarshalIndent(&storedBlob{...}, "", " ")
// by walking core.Result directly, through a pooled appender, without
// ever materialising the storedResult intermediate or the encoded
// []byte. The byte-for-byte equivalence with encoding/json is a hard
// contract — the envelope has always been defined as MarshalIndent's
// output, and the v3 container records the size of these bytes — and
// is pinned by TestCanonicalWriterMatchesEncodingJSON
// against the retained encoding/json reference (encodeEnvelope).
//
// Three encoding/json behaviours are replicated exactly:
//
//   - string escaping with escapeHTML=true (\n \r \t \b \f and \"\\
//     specials, \u00XX for other control bytes and for < > &, �
//     for invalid UTF-8,  /  escaped);
//   - plain float64 fields use the ES6-style 'f'/'e' switch (exponent
//     form below 1e-6 and at/above 1e21, with the e-0X → e-X trim) and
//     reject non-finite values, exactly like json's floatEncoder;
//   - the f64 codec fields render MarshalJSON's output verbatim
//     (shortest 'g' round-trip, quoted "NaN"/"+Inf"/"-Inf").
//
// The indentation contract is MarshalIndent("", " "): one space per
// depth, "key": value, ",\n" separators, empty composites compact.

// appender is pooled write scratch: values are appended to buf and
// flushed to w in bulk, so a full envelope render performs zero
// allocations and O(1) writes per scratch-buffer fill. It doubles as
// the byte counter (n) that gives Put the canonical size for free.
type appender struct {
	w   io.Writer // nil sinks the bytes after counting (sizing pass)
	buf []byte
	n   int64
	err error
}

var appenders = sync.Pool{New: func() any {
	return &appender{buf: make([]byte, 0, 32<<10)}
}}

func getAppender(w io.Writer) *appender {
	a := appenders.Get().(*appender)
	a.w, a.buf, a.n, a.err = w, a.buf[:0], 0, nil
	return a
}

func putAppender(a *appender) {
	a.w = nil
	appenders.Put(a)
}

// flush drains buf into w (or discards it in counting mode). The
// running total n is advanced at append time, not here, so the final
// count is exact even when the destination fails mid-stream.
func (a *appender) flush() {
	if len(a.buf) == 0 {
		return
	}
	if a.w != nil && a.err == nil {
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

// total returns the bytes appended so far and the first write error.
func (a *appender) total() (int64, error) {
	a.flush()
	return a.n, a.err
}

func (a *appender) byte(b byte) {
	a.grow(1)
	a.buf = append(a.buf, b)
	a.n++
}

func (a *appender) raw(s string) {
	a.grow(len(s))
	a.buf = append(a.buf, s...)
	a.n += int64(len(s))
}

func (a *appender) rawBytes(p []byte) {
	a.grow(len(p))
	a.buf = append(a.buf, p...)
	a.n += int64(len(p))
}

// nl writes the MarshalIndent line break: '\n' plus depth indent units
// (one space each).
func (a *appender) nl(depth int) {
	a.grow(depth + 1)
	before := len(a.buf)
	a.buf = append(a.buf, '\n')
	for i := 0; i < depth; i++ {
		a.buf = append(a.buf, ' ')
	}
	a.n += int64(len(a.buf) - before)
}

func (a *appender) intValue(v int64) {
	a.grow(20)
	before := len(a.buf)
	a.buf = strconv.AppendInt(a.buf, v, 10)
	a.n += int64(len(a.buf) - before)
}

func (a *appender) boolValue(v bool) {
	if v {
		a.raw("true")
	} else {
		a.raw("false")
	}
}

// floatValue renders a plain float64 field exactly as encoding/json's
// floatEncoder: ES6-style shortest form with the 'f'/'e' switch and
// exponent trim, erroring on non-finite values (the f64 codec exists
// for fields that legitimately carry those).
func (a *appender) floatValue(v float64) {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		if a.err == nil {
			a.err = fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(v, 'g', -1, 64))
		}
		return
	}
	abs := math.Abs(v)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	a.grow(32)
	before := len(a.buf)
	a.buf = strconv.AppendFloat(a.buf, v, format, -1, 64)
	if format == 'e' {
		// clean up e-09 to e-9, as encoding/json does
		if n := len(a.buf); n >= 4 && a.buf[n-4] == 'e' && a.buf[n-3] == '-' && a.buf[n-2] == '0' {
			a.buf[n-2] = a.buf[n-1]
			a.buf = a.buf[:n-1]
		}
	}
	a.n += int64(len(a.buf) - before)
}

// f64Value renders an f64 codec field exactly as f64.MarshalJSON:
// quoted spellings for the non-finite values, shortest 'g' round-trip
// otherwise.
func (a *appender) f64Value(v float64) {
	switch {
	case math.IsNaN(v):
		a.raw(`"NaN"`)
		return
	case math.IsInf(v, 1):
		a.raw(`"+Inf"`)
		return
	case math.IsInf(v, -1):
		a.raw(`"-Inf"`)
		return
	}
	a.grow(32)
	before := len(a.buf)
	a.buf = strconv.AppendFloat(a.buf, v, 'g', -1, 64)
	a.n += int64(len(a.buf) - before)
}

const hexDigits = "0123456789abcdef"

// stringValue renders a JSON string exactly as encoding/json with
// escapeHTML=true (the Marshal default the canonical bytes were always
// produced under).
func (a *appender) stringValue(s string) {
	a.byte('"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			a.raw(s[start:i])
			switch b {
			case '\\', '"':
				a.byte('\\')
				a.byte(b)
			case '\b':
				a.raw(`\b`)
			case '\f':
				a.raw(`\f`)
			case '\n':
				a.raw(`\n`)
			case '\r':
				a.raw(`\r`)
			case '\t':
				a.raw(`\t`)
			default:
				a.raw(`\u00`)
				a.byte(hexDigits[b>>4])
				a.byte(hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			a.raw(s[start:i])
			a.raw(`\ufffd`)
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			a.raw(s[start:i])
			a.raw(`\u202`)
			a.byte(hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	a.raw(s[start:])
	a.byte('"')
}

// jsonObj and jsonArr reproduce MarshalIndent's composite layout: a
// newline plus per-depth indent before every member, ',' separators,
// the closing bracket back at the parent depth, and the empty
// composite compact ("{}" / "[]").
type jsonObj struct {
	a     *appender
	depth int
	n     int
}

func (a *appender) object(depth int) jsonObj { return jsonObj{a: a, depth: depth} }

func (o *jsonObj) key(name string) {
	if o.n == 0 {
		o.a.byte('{')
	} else {
		o.a.byte(',')
	}
	o.n++
	o.a.nl(o.depth + 1)
	o.a.stringValue(name)
	o.a.raw(": ")
}

func (o *jsonObj) close() {
	if o.n == 0 {
		o.a.raw("{}")
		return
	}
	o.a.nl(o.depth)
	o.a.byte('}')
}

type jsonArr struct {
	a     *appender
	depth int
	n     int
}

func (a *appender) array(depth int) jsonArr { return jsonArr{a: a, depth: depth} }

func (r *jsonArr) elem() {
	if r.n == 0 {
		r.a.byte('[')
	} else {
		r.a.byte(',')
	}
	r.n++
	r.a.nl(r.depth + 1)
}

func (r *jsonArr) close() {
	if r.n == 0 {
		r.a.raw("[]")
		return
	}
	r.a.nl(r.depth)
	r.a.byte(']')
}

// renderCanonical writes the canonical envelope of (k, res) — the
// bytes json.MarshalIndent(&storedBlob{...}, "", " ") would produce —
// into the appender. It mirrors encodeResult's structural quirks
// exactly, because those shaped every canonical byte ever digested:
// Pairs, Measurements and the flattened Phase1 stats are built by
// append there, so an empty one collapses to JSON null, while the f64
// sample slices preserve the nil-vs-empty distinction.
func renderCanonical(a *appender, k Key, res *core.Result) {
	top := a.object(0)
	top.key("schema")
	a.intValue(int64(SchemaVersion))
	top.key("digest")
	a.stringValue(k.Digest)
	top.key("profile")
	a.stringValue(k.Profile)
	top.key("instance")
	a.intValue(int64(k.Instance))
	top.key("result")
	renderResult(a, 1, res)
	top.close()
}

func renderResult(a *appender, depth int, res *core.Result) {
	o := a.object(depth)
	o.key("device_name")
	a.stringValue(res.DeviceName)
	o.key("architecture")
	a.stringValue(res.Architecture)
	o.key("capture_hint_ns")
	a.intValue(res.CaptureHintNs)
	if res.Phase1 != nil {
		o.key("phase1")
		renderPhase1(a, depth+1, res.Phase1)
	}
	o.key("pairs")
	if len(res.Pairs) == 0 {
		a.raw("null") // encodeResult builds Pairs by append: empty ⇒ nil ⇒ null
	} else {
		arr := a.array(depth + 1)
		for _, pr := range res.Pairs {
			arr.elem()
			if pr == nil {
				a.raw("null")
			} else {
				renderPair(a, depth+2, pr)
			}
		}
		arr.close()
	}
	o.close()
}

func renderPhase1(a *appender, depth int, p1 *core.Phase1Result) {
	o := a.object(depth)
	o.key("stats")
	if len(p1.Stats) == 0 {
		a.raw("null")
	} else {
		// The float-keyed map flattens to a frequency-sorted slice; the
		// key scratch is the only allocation on this (rare: phase-1 runs
		// once per campaign) path.
		freqs := make([]float64, 0, len(p1.Stats))
		for f := range p1.Stats {
			freqs = append(freqs, f)
		}
		sortFloat64s(freqs)
		arr := a.array(depth + 1)
		for _, f := range freqs {
			arr.elem()
			fs := p1.Stats[f]
			so := a.object(depth + 2)
			so.key("freq_mhz")
			a.floatValue(fs.FreqMHz)
			so.key("n")
			a.intValue(int64(fs.Iter.N))
			so.key("mean")
			a.f64Value(fs.Iter.Mean)
			so.key("std")
			a.f64Value(fs.Iter.Std)
			so.key("normalish")
			a.boolValue(fs.Normalish)
			so.close()
		}
		arr.close()
	}
	o.key("valid_pairs")
	renderPairSlice(a, depth+1, p1.ValidPairs)
	o.key("excluded")
	renderPairSlice(a, depth+1, p1.Excluded)
	o.key("unstable")
	if p1.Unstable == nil {
		a.raw("null")
	} else {
		arr := a.array(depth + 1)
		for _, v := range p1.Unstable {
			arr.elem()
			a.floatValue(v)
		}
		arr.close()
	}
	o.close()
}

func renderPairValue(a *appender, depth int, p core.Pair) {
	o := a.object(depth)
	o.key("InitMHz")
	a.floatValue(p.InitMHz)
	o.key("TargetMHz")
	a.floatValue(p.TargetMHz)
	o.close()
}

func renderPairSlice(a *appender, depth int, ps []core.Pair) {
	if ps == nil {
		a.raw("null")
		return
	}
	arr := a.array(depth)
	for _, p := range ps {
		arr.elem()
		renderPairValue(a, depth+1, p)
	}
	arr.close()
}

// renderF64Slice renders a []float64 under the f64 element codec,
// preserving nil-vs-empty (toF64s does).
func renderF64Slice(a *appender, depth int, xs []float64) {
	if xs == nil {
		a.raw("null")
		return
	}
	arr := a.array(depth)
	for _, v := range xs {
		arr.elem()
		a.f64Value(v)
	}
	arr.close()
}

func renderPair(a *appender, depth int, pr *core.PairResult) {
	o := a.object(depth)
	o.key("pair")
	renderPairValue(a, depth+1, pr.Pair)
	o.key("measurements")
	if len(pr.Measurements) == 0 {
		a.raw("null") // append-built in encodeResult: empty ⇒ null
	} else {
		arr := a.array(depth + 1)
		for i := range pr.Measurements {
			arr.elem()
			m := &pr.Measurements[i]
			mo := a.object(depth + 2)
			mo.key("pair")
			renderPairValue(a, depth+3, m.Pair)
			mo.key("latency_ms")
			a.f64Value(m.LatencyMs)
			mo.key("ts_dev_ns")
			a.intValue(m.TsDevNs)
			mo.key("te_dev_ns")
			a.intValue(m.TeDevNs)
			mo.key("sm")
			a.intValue(int64(m.SM))
			mo.key("transition_index")
			a.intValue(int64(m.TransitionIndex))
			mo.key("injected_ms")
			a.f64Value(m.InjectedMs)
			mo.key("sync_spread_ns")
			a.intValue(m.SyncSpreadNs)
			mo.close()
		}
		arr.close()
	}
	o.key("samples")
	renderF64Slice(a, depth+1, pr.Samples)
	o.key("injected")
	renderF64Slice(a, depth+1, pr.Injected)
	o.key("attempts")
	a.intValue(int64(pr.Attempts))
	o.key("failures")
	a.intValue(int64(pr.Failures))
	o.key("discarded_by_throttle")
	a.intValue(int64(pr.DiscardedByThrottle))
	o.key("throttle_events")
	a.intValue(int64(pr.ThrottleEvents))
	o.key("skipped")
	a.boolValue(pr.Skipped)
	if pr.SkipReason != "" {
		o.key("skip_reason")
		a.stringValue(pr.SkipReason)
	}
	o.key("kept")
	renderF64Slice(a, depth+1, pr.Kept)
	o.key("outliers")
	renderF64Slice(a, depth+1, pr.Outliers)
	if pr.Clusters != nil {
		o.key("clusters")
		co := a.object(depth + 1)
		co.key("labels")
		if pr.Clusters.Labels == nil {
			a.raw("null")
		} else {
			arr := a.array(depth + 2)
			for _, l := range pr.Clusters.Labels {
				arr.elem()
				a.intValue(int64(l))
			}
			arr.close()
		}
		co.key("num_clusters")
		a.intValue(int64(pr.Clusters.NumClusters))
		co.key("eps")
		a.f64Value(pr.Clusters.Eps)
		co.key("min_pts")
		a.intValue(int64(pr.Clusters.MinPts))
		co.close()
	}
	o.key("summary")
	so := a.object(depth + 1)
	so.key("n")
	a.intValue(int64(pr.Summary.N))
	so.key("mean")
	a.f64Value(pr.Summary.Mean)
	so.key("std")
	a.f64Value(pr.Summary.Std)
	so.key("min")
	a.f64Value(pr.Summary.Min)
	so.key("q05")
	a.f64Value(pr.Summary.Q05)
	so.key("q25")
	a.f64Value(pr.Summary.Q25)
	so.key("median")
	a.f64Value(pr.Summary.Median)
	so.key("q75")
	a.f64Value(pr.Summary.Q75)
	so.key("q95")
	a.f64Value(pr.Summary.Q95)
	so.key("max")
	a.f64Value(pr.Summary.Max)
	so.close()
	o.key("final_rse")
	a.f64Value(pr.FinalRSE)
	o.close()
}

// sortFloat64s is an insertion sort: phase-1 sweeps a handful of
// frequencies, and the tiny fixed cost avoids pulling sort's
// interface machinery into the render path.
func sortFloat64s(xs []float64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// writeCanonicalTo streams the canonical envelope of (k, res) into w
// and returns its size — the renderer behind EncodeBlob and the sizing
// pass of the v3 encoder.
func writeCanonicalTo(w io.Writer, k Key, res *core.Result) (int64, error) {
	a := getAppender(w)
	renderCanonical(a, k, res)
	n, err := a.total()
	putAppender(a)
	return n, err
}
