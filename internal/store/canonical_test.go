package store

import (
	"bytes"
	"math"
	"testing"

	"golatest/internal/cluster"
	"golatest/internal/core"
	"golatest/internal/stats"
)

// adversarialResults is the fixture set the canonical renderer and the
// v3 codec are pinned against: every structural and lexical edge the
// envelope schema can express — nil-vs-empty slices, omitted optionals,
// nil pair elements, exotic strings, and float values on both sides of
// every formatting switch in encoding/json.
func adversarialResults() map[string]*core.Result {
	nan := math.NaN()
	oddNaN := math.Float64frombits(0x7ff8_dead_beef_0001) // payload bits ≠ canonical NaN
	inf := math.Inf(1)
	return map[string]*core.Result{
		"zero": {},
		"empty-slices": {
			Pairs: []*core.PairResult{}, // append-collapse: renders null
			Phase1: &core.Phase1Result{
				Stats:      map[float64]core.FreqStats{}, // collapses to null
				ValidPairs: []core.Pair{},                // preserved as []
				Excluded:   nil,                          // preserved as null
				Unstable:   []float64{},                  // preserved as []
			},
		},
		"nil-pair-element": {
			DeviceName: "H100",
			Pairs: []*core.PairResult{
				nil,
				{Pair: core.Pair{InitMHz: 210, TargetMHz: 1980}},
			},
		},
		"strings": {
			DeviceName:   `<A100 & "friends">`,
			Architecture: "ctl:\x01\x02\t\n\r\b\f del:\x7f bad:\xff\xe4\xb8 sep:   uni:héllo→世界",
			Pairs: []*core.PairResult{{
				Skipped:    true,
				SkipReason: `power "throttling" <unsustainable> & hot`,
			}},
		},
		"float-switches": {
			Phase1: &core.Phase1Result{
				Stats: map[float64]core.FreqStats{
					1410: {FreqMHz: 1410, Iter: stats.MeanStd{N: 3, Mean: nan, Std: inf}, Normalish: true},
					210:  {FreqMHz: 210, Iter: stats.MeanStd{N: 1, Mean: -inf, Std: math.MaxFloat64}},
					825:  {FreqMHz: 825, Iter: stats.MeanStd{N: 2, Mean: math.SmallestNonzeroFloat64}},
				},
				// Every branch of the plain-float formatter: 'f' vs 'e' at
				// 1e-6 and 1e21, the e-0X exponent trim, and negative zero.
				Unstable: []float64{
					0, math.Copysign(0, -1), 1e-6, 9.9e-7, 1e-30,
					1e21, 5e20, -1e21, 1234567.875,
				},
			},
			Pairs: []*core.PairResult{{
				Pair:    core.Pair{InitMHz: 1e21, TargetMHz: 9.9e-7},
				Samples: []float64{nan, oddNaN, inf, math.Inf(-1), -0.0625},
				Summary: stats.Summarize(nil), // all-NaN summary, N=0
				Kept:    []float64{},
				// Outliers nil: null next to Kept's []
				FinalRSE: nan,
			}},
		},
		"clusters": {
			CaptureHintNs: -9_223_372_036_854_775_808,
			Pairs: []*core.PairResult{
				{
					Pair:     core.Pair{InitMHz: 210, TargetMHz: 825},
					Samples:  []float64{1.5, 2.5, 3.5},
					Clusters: &cluster.Result{Labels: []int{0, 0, cluster.Noise}, NumClusters: 1, Eps: nan, MinPts: 4},
				},
				{
					Pair:     core.Pair{InitMHz: 825, TargetMHz: 210},
					Clusters: &cluster.Result{Labels: []int{}, Eps: 0.25},
				},
				{
					Clusters: &cluster.Result{}, // Labels nil → null
				},
			},
		},
		"measurements": {
			DeviceName:   "A100-SXM4[0]",
			Architecture: "sm_80",
			Pairs: []*core.PairResult{{
				Pair: core.Pair{InitMHz: 330, TargetMHz: 1410},
				Measurements: []core.Measurement{
					{
						Pair:      core.Pair{InitMHz: 330, TargetMHz: 1410},
						LatencyMs: 12.25, TsDevNs: 100, TeDevNs: 12_350_100,
						SM: 107, TransitionIndex: 9_999, InjectedMs: nan,
						SyncSpreadNs: -1,
					},
					{LatencyMs: oddNaN, InjectedMs: inf},
				},
				Samples:  []float64{12.25, 13},
				Injected: []float64{nan, inf},
				Attempts: 7, Failures: 2, DiscardedByThrottle: 3, ThrottleEvents: 1,
				Kept: []float64{12.25}, Outliers: []float64{13},
				Summary:  stats.Summarize([]float64{12.25}),
				FinalRSE: 0.03125,
			}},
		},
		"test-fixture":  testResult(),
		"codec-fixture": codecResult(),
	}
}

// TestCanonicalWriterMatchesEncodingJSON pins the hand-rolled renderer
// to the reference implementation byte for byte: the canonical-bytes
// contract is "whatever json.MarshalIndent said", forever, because the
// digest and the ETag are defined over those bytes. Any divergence —
// an escape, a float format, a nil-vs-empty collapse — would silently
// change every digest in every store.
func TestCanonicalWriterMatchesEncodingJSON(t *testing.T) {
	keys := []Key{
		{Digest: "cafe", Profile: "a100-sxm4", Instance: 0},
		{Digest: "f00d", Profile: `pro<file> & "q"`, Instance: -3},
	}
	for name, res := range adversarialResults() {
		t.Run(name, func(t *testing.T) {
			for _, k := range keys {
				ref, err := encodeEnvelope(k, res)
				if err != nil {
					t.Fatalf("reference encoder: %v", err)
				}
				var buf bytes.Buffer
				n, err := writeCanonicalTo(&buf, k, res)
				if err != nil {
					t.Fatalf("renderer: %v", err)
				}
				if !bytes.Equal(buf.Bytes(), ref) {
					t.Fatalf("renderer diverges from encoding/json:\n got: %q\nwant: %q",
						firstDiff(buf.Bytes(), ref), firstDiff(ref, buf.Bytes()))
				}
				if n != int64(len(ref)) {
					t.Fatalf("renderer size = %d, want %d", n, len(ref))
				}
				// Counting mode (nil writer) must agree without writing.
				cn, err := writeCanonicalTo(nil, k, res)
				if err != nil || cn != int64(len(ref)) {
					t.Fatalf("counting render = (%d, %v), want (%d, nil)", cn, err, len(ref))
				}
				// EncodeBlob is the renderer behind a buffer.
				enc, err := EncodeBlob(k, res)
				if err != nil || !bytes.Equal(enc, ref) {
					t.Fatalf("EncodeBlob diverges from the reference (err=%v)", err)
				}
			}
		})
	}
}

// firstDiff returns a window of a around the first byte where a and b
// differ, for a readable failure message.
func firstDiff(a, b []byte) []byte {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	lo, hi := i-40, i+40
	if lo < 0 {
		lo = 0
	}
	if hi > len(a) {
		hi = len(a)
	}
	return a[lo:hi]
}

// TestCanonicalWriterRejectsNonFiniteFloats: plain float64 fields (pair
// frequencies, unstable clocks, phase-1 keys) cannot hold NaN/Inf —
// encoding/json errors there, and the renderer must refuse identically
// rather than emit bytes the reference implementation never could.
func TestCanonicalWriterRejectsNonFiniteFloats(t *testing.T) {
	k := Key{Digest: "cafe", Profile: "p", Instance: 0}
	bad := map[string]*core.Result{
		"nan-pair": {Pairs: []*core.PairResult{{Pair: core.Pair{InitMHz: math.NaN()}}}},
		"inf-unstable": {Phase1: &core.Phase1Result{
			Unstable: []float64{math.Inf(1)},
		}},
	}
	for name, res := range bad {
		t.Run(name, func(t *testing.T) {
			if _, err := encodeEnvelope(k, res); err == nil {
				t.Fatal("reference encoder accepted a non-finite plain float; fixture is wrong")
			}
			if _, err := writeCanonicalTo(nil, k, res); err == nil {
				t.Fatal("renderer accepted a non-finite plain float")
			}
			if _, err := EncodeBlobV3(k, res); err == nil {
				t.Fatal("v3 encoder accepted a result outside the canonical-JSON domain")
			}
		})
	}
}

// TestV3RoundTrip: for every adversarial fixture, the v3 container
// decodes back to a result whose canonical bytes are identical to the
// original's — the invariant that makes v3 a faithful carrier of the
// canonical contract — and the recorded RawBytes is the canonical size.
func TestV3RoundTrip(t *testing.T) {
	k := Key{Digest: "cafe", Profile: "a100-sxm4", Instance: 2}
	for name, res := range adversarialResults() {
		t.Run(name, func(t *testing.T) {
			canon, err := encodeEnvelope(k, res)
			if err != nil {
				t.Fatal(err)
			}
			v3, err := EncodeBlobV3(k, res)
			if err != nil {
				t.Fatal(err)
			}
			if !hasV3Magic(v3) {
				t.Fatal("EncodeBlobV3 did not produce the v3 container")
			}
			vb, err := ValidateBlobBytes(v3, k.Digest)
			if err != nil {
				t.Fatalf("v3 container does not validate: %v", err)
			}
			if vb.RawBytes() != int64(len(canon)) {
				t.Fatalf("RawBytes = %d, want canonical size %d", vb.RawBytes(), len(canon))
			}
			back, err := encodeEnvelope(k, vb.Result())
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(back, canon) {
				t.Fatalf("v3 round-trip changed canonical bytes:\n got: %q\nwant: %q",
					firstDiff(back, canon), firstDiff(canon, back))
			}

			// Determinism: a second encode is byte-identical.
			again, err := EncodeBlobV3(k, res)
			if err != nil || !bytes.Equal(again, v3) {
				t.Fatalf("EncodeBlobV3 is not deterministic (err=%v)", err)
			}
		})
	}
}

// TestV3NaNCanonicalization: NaN payload bits are not part of the
// canonical contract (JSON spells every NaN "NaN"), so the v3 binary
// section must canonicalize them — otherwise two results equal under
// the digest would produce different v3 bytes and identical writers
// would not converge.
func TestV3NaNCanonicalization(t *testing.T) {
	k := Key{Digest: "cafe", Profile: "p", Instance: 0}
	build := func(bits uint64) *core.Result {
		v := math.Float64frombits(bits)
		return &core.Result{Pairs: []*core.PairResult{{
			Samples:  []float64{v, 1},
			FinalRSE: v,
		}}}
	}
	a, err := EncodeBlobV3(k, build(math.Float64bits(math.NaN())))
	if err != nil {
		t.Fatal(err)
	}
	b, err := EncodeBlobV3(k, build(0x7ff8_0123_4567_89ab))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("v3 bytes depend on NaN payload bits")
	}
}
