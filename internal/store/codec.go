package store

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"unsafe"

	"golatest/internal/cluster"
	"golatest/internal/core"
	"golatest/internal/stats"
)

// f64 is a float64 that survives the canonical JSON envelope:
// encoding/json rejects NaN and the infinities, but campaign results
// legitimately contain them (e.g. a Measurement.InjectedMs is NaN when
// the simulator could not attribute the injection, and an empty
// population summarises to NaN). Non-finite values encode as the strings
// "NaN", "+Inf" and "-Inf"; finite values encode as the shortest decimal
// that round-trips the exact bit pattern. Only the encode direction
// exists: the envelope is rendered (to size RawBytes), never parsed.
type f64 float64

func (f f64) MarshalJSON() ([]byte, error) {
	v := float64(f)
	switch {
	case math.IsNaN(v):
		return []byte(`"NaN"`), nil
	case math.IsInf(v, 1):
		return []byte(`"+Inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-Inf"`), nil
	}
	return strconv.AppendFloat(nil, v, 'g', -1, 64), nil
}

// toF64s and fromF64s reinterpret a slice between float64 and f64
// without copying. f64 is a defined type whose underlying type is
// float64, so the two element layouts are identical by the language
// spec; only the method set (the JSON encoding) differs. Copy-free
// conversion is safe in both directions here: the encoder only reads
// the aliased memory, and the decoder hands over slices that the v3
// reader freshly allocated and nothing else references. The
// nil/empty distinction is preserved explicitly because the canonical
// encoding distinguishes null from [].
func toF64s(xs []float64) []f64 {
	if xs == nil {
		return nil
	}
	if len(xs) == 0 {
		return []f64{}
	}
	return unsafe.Slice((*f64)(unsafe.Pointer(&xs[0])), len(xs))
}

func fromF64s(xs []f64) []float64 {
	if xs == nil {
		return nil
	}
	if len(xs) == 0 {
		return []float64{}
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&xs[0])), len(xs))
}

// The stored* types below are the on-disk schema, deliberately decoupled
// from the in-memory types: in-memory layouts may change freely, but any
// change that alters this schema (or the meaning of a stored field) MUST
// bump SchemaVersion so stale blobs read as misses instead of decoding
// into garbage. The only structural divergence from internal/core is
// Phase1's Stats: JSON objects cannot key on float64, so the map is
// flattened to a frequency-sorted slice (FreqStats carries its own
// FreqMHz, making the flattening lossless).

type storedBlob struct {
	Schema   int          `json:"schema"`
	Digest   string       `json:"digest"`
	Profile  string       `json:"profile"`
	Instance int          `json:"instance"`
	Result   storedResult `json:"result"`
}

type storedResult struct {
	DeviceName    string        `json:"device_name"`
	Architecture  string        `json:"architecture"`
	CaptureHintNs int64         `json:"capture_hint_ns"`
	Phase1        *storedPhase1 `json:"phase1,omitempty"`
	Pairs         []*storedPair `json:"pairs"`
}

type storedPhase1 struct {
	Stats      []storedFreqStats `json:"stats"`
	ValidPairs []core.Pair       `json:"valid_pairs"`
	Excluded   []core.Pair       `json:"excluded"`
	Unstable   []float64         `json:"unstable"`
}

type storedFreqStats struct {
	FreqMHz   float64 `json:"freq_mhz"`
	N         int     `json:"n"`
	Mean      f64     `json:"mean"`
	Std       f64     `json:"std"`
	Normalish bool    `json:"normalish"`
}

type storedPair struct {
	Pair                core.Pair           `json:"pair"`
	Measurements        []storedMeasurement `json:"measurements"`
	Samples             []f64               `json:"samples"`
	Injected            []f64               `json:"injected"`
	Attempts            int                 `json:"attempts"`
	Failures            int                 `json:"failures"`
	DiscardedByThrottle int                 `json:"discarded_by_throttle"`
	ThrottleEvents      int                 `json:"throttle_events"`
	Skipped             bool                `json:"skipped"`
	SkipReason          string              `json:"skip_reason,omitempty"`
	Kept                []f64               `json:"kept"`
	Outliers            []f64               `json:"outliers"`
	Clusters            *storedClusters     `json:"clusters,omitempty"`
	Summary             storedSummary       `json:"summary"`
	FinalRSE            f64                 `json:"final_rse"`
}

type storedMeasurement struct {
	Pair            core.Pair `json:"pair"`
	LatencyMs       f64       `json:"latency_ms"`
	TsDevNs         int64     `json:"ts_dev_ns"`
	TeDevNs         int64     `json:"te_dev_ns"`
	SM              int       `json:"sm"`
	TransitionIndex int       `json:"transition_index"`
	InjectedMs      f64       `json:"injected_ms"`
	SyncSpreadNs    int64     `json:"sync_spread_ns"`
}

type storedClusters struct {
	Labels      []int `json:"labels"`
	NumClusters int   `json:"num_clusters"`
	Eps         f64   `json:"eps"`
	MinPts      int   `json:"min_pts"`
}

type storedSummary struct {
	N      int `json:"n"`
	Mean   f64 `json:"mean"`
	Std    f64 `json:"std"`
	Min    f64 `json:"min"`
	Q05    f64 `json:"q05"`
	Q25    f64 `json:"q25"`
	Median f64 `json:"median"`
	Q75    f64 `json:"q75"`
	Q95    f64 `json:"q95"`
	Max    f64 `json:"max"`
}

func encodeResult(res *core.Result) storedResult {
	sr := storedResult{
		DeviceName:    res.DeviceName,
		Architecture:  res.Architecture,
		CaptureHintNs: res.CaptureHintNs,
	}
	if res.Phase1 != nil {
		p1 := &storedPhase1{
			ValidPairs: res.Phase1.ValidPairs,
			Excluded:   res.Phase1.Excluded,
			Unstable:   res.Phase1.Unstable,
		}
		for _, fs := range res.Phase1.Stats {
			p1.Stats = append(p1.Stats, storedFreqStats{
				FreqMHz:   fs.FreqMHz,
				N:         fs.Iter.N,
				Mean:      f64(fs.Iter.Mean),
				Std:       f64(fs.Iter.Std),
				Normalish: fs.Normalish,
			})
		}
		sort.Slice(p1.Stats, func(i, j int) bool { return p1.Stats[i].FreqMHz < p1.Stats[j].FreqMHz })
		sr.Phase1 = p1
	}
	for _, pr := range res.Pairs {
		if pr == nil {
			sr.Pairs = append(sr.Pairs, nil)
			continue
		}
		sp := &storedPair{
			Pair:                pr.Pair,
			Samples:             toF64s(pr.Samples),
			Injected:            toF64s(pr.Injected),
			Attempts:            pr.Attempts,
			Failures:            pr.Failures,
			DiscardedByThrottle: pr.DiscardedByThrottle,
			ThrottleEvents:      pr.ThrottleEvents,
			Skipped:             pr.Skipped,
			SkipReason:          pr.SkipReason,
			Kept:                toF64s(pr.Kept),
			Outliers:            toF64s(pr.Outliers),
			Summary:             encodeSummary(pr.Summary),
			FinalRSE:            f64(pr.FinalRSE),
		}
		for _, m := range pr.Measurements {
			sp.Measurements = append(sp.Measurements, storedMeasurement{
				Pair:            m.Pair,
				LatencyMs:       f64(m.LatencyMs),
				TsDevNs:         m.TsDevNs,
				TeDevNs:         m.TeDevNs,
				SM:              m.SM,
				TransitionIndex: m.TransitionIndex,
				InjectedMs:      f64(m.InjectedMs),
				SyncSpreadNs:    m.SyncSpreadNs,
			})
		}
		if pr.Clusters != nil {
			sp.Clusters = &storedClusters{
				Labels:      pr.Clusters.Labels,
				NumClusters: pr.Clusters.NumClusters,
				Eps:         f64(pr.Clusters.Eps),
				MinPts:      pr.Clusters.MinPts,
			}
		}
		sr.Pairs = append(sr.Pairs, sp)
	}
	return sr
}

func encodeSummary(s stats.Summary) storedSummary {
	return storedSummary{
		N: s.N, Mean: f64(s.Mean), Std: f64(s.Std), Min: f64(s.Min),
		Q05: f64(s.Q05), Q25: f64(s.Q25), Median: f64(s.Median),
		Q75: f64(s.Q75), Q95: f64(s.Q95), Max: f64(s.Max),
	}
}

func decodeSummary(s storedSummary) stats.Summary {
	return stats.Summary{
		N: s.N, Mean: float64(s.Mean), Std: float64(s.Std), Min: float64(s.Min),
		Q05: float64(s.Q05), Q25: float64(s.Q25), Median: float64(s.Median),
		Q75: float64(s.Q75), Q95: float64(s.Q95), Max: float64(s.Max),
	}
}

func decodeResult(sr storedResult) *core.Result {
	res := &core.Result{
		DeviceName:    sr.DeviceName,
		Architecture:  sr.Architecture,
		CaptureHintNs: sr.CaptureHintNs,
	}
	if sr.Phase1 != nil {
		p1 := &core.Phase1Result{
			Stats:      make(map[float64]core.FreqStats, len(sr.Phase1.Stats)),
			ValidPairs: sr.Phase1.ValidPairs,
			Excluded:   sr.Phase1.Excluded,
			Unstable:   sr.Phase1.Unstable,
		}
		for _, fs := range sr.Phase1.Stats {
			p1.Stats[fs.FreqMHz] = core.FreqStats{
				FreqMHz: fs.FreqMHz,
				Iter: stats.MeanStd{
					N:    fs.N,
					Mean: float64(fs.Mean),
					Std:  float64(fs.Std),
				},
				Normalish: fs.Normalish,
			}
		}
		res.Phase1 = p1
	}
	for _, sp := range sr.Pairs {
		if sp == nil {
			res.Pairs = append(res.Pairs, nil)
			continue
		}
		pr := &core.PairResult{
			Pair:                sp.Pair,
			Samples:             fromF64s(sp.Samples),
			Injected:            fromF64s(sp.Injected),
			Attempts:            sp.Attempts,
			Failures:            sp.Failures,
			DiscardedByThrottle: sp.DiscardedByThrottle,
			ThrottleEvents:      sp.ThrottleEvents,
			Skipped:             sp.Skipped,
			SkipReason:          sp.SkipReason,
			Kept:                fromF64s(sp.Kept),
			Outliers:            fromF64s(sp.Outliers),
			Summary:             decodeSummary(sp.Summary),
			FinalRSE:            float64(sp.FinalRSE),
		}
		for _, m := range sp.Measurements {
			pr.Measurements = append(pr.Measurements, core.Measurement{
				Pair:            m.Pair,
				LatencyMs:       float64(m.LatencyMs),
				TsDevNs:         m.TsDevNs,
				TeDevNs:         m.TeDevNs,
				SM:              m.SM,
				TransitionIndex: m.TransitionIndex,
				InjectedMs:      float64(m.InjectedMs),
				SyncSpreadNs:    m.SyncSpreadNs,
			})
		}
		if sp.Clusters != nil {
			pr.Clusters = &cluster.Result{
				Labels:      sp.Clusters.Labels,
				NumClusters: sp.Clusters.NumClusters,
				Eps:         float64(sp.Clusters.Eps),
				MinPts:      sp.Clusters.MinPts,
			}
		}
		res.Pairs = append(res.Pairs, pr)
	}
	return res
}

// ErrInvalidBlob marks bytes that are not a valid blob for the digest
// they were presented under: anything but the v3 container (the legacy
// plain-JSON and gzip-JSON blobs included), a broken or truncated
// compressed stream, a malformed binary body, a foreign schema version,
// or a digest mismatch. It distinguishes "these bytes are garbage"
// (reject, recompute) from I/O failures; the network daemon maps it to
// 400 Bad Request.
var ErrInvalidBlob = errors.New("invalid blob")

// gzipBlobLevel is the compression level of every container this
// process writes. One fixed level keeps the bytes deterministic (equal
// key ⇒ equal result ⇒ equal container bytes for writers of the same
// build), so idempotent duplicate Puts still converge byte-for-byte.
// DefaultCompression trades a few extra ms on the (compute-dominated)
// cold path for the best ratio on the warm paths every later read and
// transfer pays.
const gzipBlobLevel = gzip.DefaultCompression

// Codec pools: encode/decode run on every warm store hit and every
// wire transfer, so the gzip state machines (~hundreds of KB each) are
// recycled instead of reallocated per call.
var (
	gzipWriters = sync.Pool{New: func() any {
		w, _ := gzip.NewWriterLevel(io.Discard, gzipBlobLevel)
		return w
	}}
	gzipReaders = sync.Pool{New: func() any { return new(gzip.Reader) }}
	// decodeBufs holds the inflated body between inflation and the
	// binary walk. Safe to recycle as soon as the walk returns — it
	// copies every string and slice out — and it is what keeps a warm
	// Get's allocation cost at the compressed size, not the inflated
	// one.
	decodeBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}
)

// maxCanonicalBytes bounds how far a container may inflate and the
// canonical size its header may claim — the canonical form of a
// full-scale campaign blob is low megabytes, so 256 MiB is a safety
// rail, not a working limit. Without it a crafted gzip bomb (deflate
// approaches 1032:1) arriving through PutRaw or a client Get body would
// balloon a bounded compressed payload into gigabytes of decode buffer.
// A variable so the bomb test does not have to inflate 256 MiB to cross
// it.
var maxCanonicalBytes int64 = 256 << 20

// maxPooledDecodeBuf caps the scratch buffers decodeBufs retains; a
// pathological blob's oversized buffer is dropped for GC instead of
// pinning its memory in the pool forever.
const maxPooledDecodeBuf = 8 << 20

func putDecodeBuf(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledDecodeBuf {
		decodeBufs.Put(buf)
	}
}

// countingWriter measures the byte stream passing through it, so Put
// can record the container size without materialising it.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// EncodeBlob renders the canonical bytes of a campaign result under its
// key: json.MarshalIndent of the stored* envelope. The v3 header
// records their size as RawBytes, and the v3 encoder accepts exactly
// their domain (JSON-encodable results only). Equal key ⇒ equal result
// ⇒ equal bytes. These bytes are not a container: storage and the wire
// carry EncodeBlobV3 only, and ValidateBlob rejects canonical JSON.
func EncodeBlob(k Key, res *core.Result) ([]byte, error) {
	if res == nil {
		return nil, fmt.Errorf("store: nil result for %s", k)
	}
	data, err := json.MarshalIndent(&storedBlob{
		Schema:   SchemaVersion,
		Digest:   k.Digest,
		Profile:  k.Profile,
		Instance: k.Instance,
		Result:   encodeResult(res),
	}, "", " ")
	if err != nil {
		return nil, fmt.Errorf("store: encode %s: %w", k, err)
	}
	return data, nil
}

// decodePasses counts every full blob parse this process has
// performed. It exists for the single-validation pipeline contract:
// tests instrument it to prove that a warm remote Get decodes the wire
// bytes exactly once before they land in the local tier verbatim.
var decodePasses atomic.Int64

// DecodePasses returns the number of blob parses performed so far —
// an instrumentation hook, not an operational counter.
func DecodePasses() int64 { return decodePasses.Load() }

// parseBlob validates v3 container bytes against the digest they are
// stored (or addressed) under and returns the envelope plus the
// canonical byte count from the header. The gzip stream is inflated
// through a pooled reader into a pooled scratch buffer — the full
// inflate-before-parse is what verifies the gzip CRC, so a truncated
// or bit-flipped stream whose prefix still deflates can never be
// served — and the bounds-checked binary walk runs over that recycled
// buffer, keeping a warm decode's allocations proportional to the
// compressed size. Any mismatch — a missing magic, a broken gzip
// stream or checksum, a malformed binary section, schema drift, a blob
// renamed onto the wrong digest, trailing garbage — wraps
// ErrInvalidBlob; callers treat it as a cache miss and recompute.
func parseBlob(data []byte, digest string) (b *storedBlob, rawBytes int64, err error) {
	decodePasses.Add(1)
	invalid := func(cause error) error {
		return fmt.Errorf("store: blob %s: %w: %v", digest, ErrInvalidBlob, cause)
	}
	if !hasV3Magic(data) {
		return nil, 0, invalid(errors.New("not a v3 container"))
	}
	buf, err := inflateV3(data)
	if err != nil {
		return nil, 0, invalid(err)
	}
	b, rawBytes, err = decodeV3Body(buf.Bytes())
	putDecodeBuf(buf)
	if err != nil {
		return nil, 0, invalid(err)
	}
	if b.Schema != SchemaVersion {
		return nil, rawBytes, fmt.Errorf("store: blob %s: %w: schema %d, want %d",
			digest, ErrInvalidBlob, b.Schema, SchemaVersion)
	}
	if b.Digest != digest {
		return nil, rawBytes, fmt.Errorf("store: %w: blob digest %s does not match key %s",
			ErrInvalidBlob, b.Digest, digest)
	}
	return b, rawBytes, nil
}

// ValidateBlob parses and validates v3 container bytes against a digest
// and returns the decoded result. The network client runs every
// response body through it, so a truncated or tampered transfer is a
// miss (and a recompute), never a wrong result. Callers that go on to
// store the bytes should use ValidateBlobBytes instead, which keeps the
// validated bytes and the decoded result together.
func ValidateBlob(data []byte, digest string) (*core.Result, error) {
	b, _, err := parseBlob(data, digest)
	if err != nil {
		return nil, err
	}
	return decodeResult(b.Result), nil
}
