package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"golatest/internal/cluster"
	"golatest/internal/core"
	"golatest/internal/stats"
)

// adversarialResults is the fixture set the v3 codec is pinned
// against: every structural and lexical edge the body layout can
// express — nil-vs-empty slices, omitted optionals,
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
// encoding/json errors there — so neither EncodeBlobV3 nor Put may
// accept such a result, and a refused Put leaves nothing behind: no
// index entry, no blob, no staging file. The error names the key once.
func TestCanonicalWriterRejectsNonFiniteFloats(t *testing.T) {
	k := Key{Digest: "cafe", Profile: "p", Instance: 0}
	prefix := "store: encode " + k.String()
	bad := map[string]*core.Result{
		"nan-pair": {Pairs: []*core.PairResult{{Pair: core.Pair{InitMHz: math.NaN()}}}},
		"inf-unstable": {Phase1: &core.Phase1Result{
			Unstable: []float64{math.Inf(1)},
		}},
	}
	for name, res := range bad {
		t.Run(name, func(t *testing.T) {
			if _, err := EncodeBlobV3(k, res); err == nil {
				t.Fatal("v3 encoder accepted a result outside the canonical-JSON domain")
			} else if n := strings.Count(err.Error(), "store: encode"); n != 1 || !strings.HasPrefix(err.Error(), prefix) {
				t.Fatalf("EncodeBlobV3 error %q: want the %q prefix exactly once", err, prefix)
			}

			dir := t.TempDir()
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			err = s.Put(k, res)
			if err == nil {
				t.Fatal("Put accepted a result outside the canonical-JSON domain")
			}
			if n := strings.Count(err.Error(), "store: encode"); n != 1 || !strings.Contains(err.Error(), prefix) {
				t.Fatalf("Put error %q: want %q exactly once", err, prefix)
			}
			if s.Len() != 0 {
				t.Fatalf("refused Put left %d index entries", s.Len())
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				if e.Name() == k.blobName() || strings.HasPrefix(e.Name(), tmpPrefix) {
					t.Fatalf("refused Put left %s in the store dir", e.Name())
				}
			}
		})
	}
}

// TestV3RoundTrip: for every adversarial fixture, the v3 container
// decodes back to the fixture itself — every field, with NaN equal to
// NaN whatever its payload, and nil equal to empty only where the body
// collapses empty to nil (pairs, measurements, phase-1 stats) — and
// the recorded RawBytes is the inflated body's size.
// TestV3GoldenBytes pins those sizes and the body bytes to fixed values.
func TestV3RoundTrip(t *testing.T) {
	k := Key{Digest: "cafe", Profile: "a100-sxm4", Instance: 2}
	for name, res := range adversarialResults() {
		t.Run(name, func(t *testing.T) {
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
			if want := bodyLen(t, k, res); vb.RawBytes() != want {
				t.Fatalf("RawBytes = %d, want the body size %d", vb.RawBytes(), want)
			}
			if vb.Key() != k {
				t.Fatalf("Key = %+v, want %+v", vb.Key(), k)
			}
			if d := diffResult(reflect.ValueOf(vb.Result()).Elem(), reflect.ValueOf(res).Elem(), "Result"); d != "" {
				t.Fatalf("v3 round trip changed %s", d)
			}

			// Determinism: a second encode is byte-identical.
			again, err := EncodeBlobV3(k, res)
			if err != nil || !bytes.Equal(again, v3) {
				t.Fatalf("EncodeBlobV3 is not deterministic (err=%v)", err)
			}
		})
	}
}

// bodyLen returns the inflated v3 body size of res under k.
func bodyLen(t testing.TB, k Key, res *core.Result) int64 {
	t.Helper()
	e, err := encodeBody(k, res)
	if err != nil {
		t.Fatal(err)
	}
	defer putEncoder(e)
	return int64(len(e.buf))
}

// diffResult names the first field where a decoded result differs from
// the one encoded, or returns "". Floats compare by bits, except that
// every NaN equals every other; slices and pointers compare nil-ness,
// except that the three slices the body collapses empty to nil may
// decode nil (or, for the phase-1 map, empty) where the input was
// empty (or nil).
func diffResult(got, want reflect.Value, path string) string {
	switch want.Kind() {
	case reflect.Float64:
		g, w := got.Float(), want.Float()
		if math.Float64bits(g) == math.Float64bits(w) || math.IsNaN(g) && math.IsNaN(w) {
			return ""
		}
		return fmt.Sprintf("%s: %v, want %v", path, g, w)
	case reflect.Int, reflect.Int64:
		if got.Int() != want.Int() {
			return fmt.Sprintf("%s: %d, want %d", path, got.Int(), want.Int())
		}
	case reflect.Bool:
		if got.Bool() != want.Bool() {
			return fmt.Sprintf("%s: %v, want %v", path, got.Bool(), want.Bool())
		}
	case reflect.String:
		if got.String() != want.String() {
			return fmt.Sprintf("%s: %q, want %q", path, got.String(), want.String())
		}
	case reflect.Pointer:
		if got.IsNil() != want.IsNil() {
			return fmt.Sprintf("%s: nil %v, want nil %v", path, got.IsNil(), want.IsNil())
		}
		if !want.IsNil() {
			return diffResult(got.Elem(), want.Elem(), path)
		}
	case reflect.Slice:
		collapses := strings.HasSuffix(path, ".Pairs") || strings.HasSuffix(path, ".Measurements")
		if got.IsNil() != want.IsNil() && !(collapses && want.Len() == 0) {
			return fmt.Sprintf("%s: nil %v, want nil %v", path, got.IsNil(), want.IsNil())
		}
		if got.Len() != want.Len() {
			return fmt.Sprintf("%s: length %d, want %d", path, got.Len(), want.Len())
		}
		for i := 0; i < want.Len(); i++ {
			if d := diffResult(got.Index(i), want.Index(i), fmt.Sprintf("%s[%d]", path, i)); d != "" {
				return d
			}
		}
	case reflect.Map: // Phase1.Stats: nil and empty both decode empty
		if got.Len() != want.Len() {
			return fmt.Sprintf("%s: length %d, want %d", path, got.Len(), want.Len())
		}
		for it := want.MapRange(); it.Next(); {
			g := got.MapIndex(it.Key())
			if !g.IsValid() {
				return fmt.Sprintf("%s[%v]: missing", path, it.Key())
			}
			if d := diffResult(g, it.Value(), fmt.Sprintf("%s[%v]", path, it.Key())); d != "" {
				return d
			}
		}
	case reflect.Struct:
		for i := 0; i < want.NumField(); i++ {
			if d := diffResult(got.Field(i), want.Field(i), path+"."+want.Type().Field(i).Name); d != "" {
				return d
			}
		}
	default:
		return fmt.Sprintf("%s: unsupported kind %s", path, want.Kind())
	}
	return ""
}

// TestV3NaNCanonicalization: NaN payload bits are not part of a
// result's value (every NaN is just NaN), so the v3 binary body must
// canonicalize them — otherwise two results equal under
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

// TestV3GoldenBytes pins every adversarial fixture's v3 encoding to
// fixed values: the body size its header records and the sha256 of the
// inflated body. The inflated body does not depend on the toolchain's
// compress/flate, so these hold across Go releases; any change to them
// changes every blob in every store and needs a SchemaVersion bump.
// The body starts with the schema, so each bump re-pins them (last at
// schema 8).
func TestV3GoldenBytes(t *testing.T) {
	k := Key{Digest: "cafe", Profile: "a100-sxm4", Instance: 2}
	golden := map[string]struct {
		rawBytes int64
		bodySHA  string
	}{
		"clusters":         {683, "f67328b1b96250a404da6c37a81178b3d53e12ed30829b76de98c79d3e00cad6"},
		"codec-fixture":    {56133, "62c24dd616c9e97a64439bc95ac97a96877ba98d9d1a7c87d1fc196bd72b9785"},
		"empty-slices":     {78, "61effa4576ca41a1ffb96bb65c8aa4b17c3a09cf9db2e2eb426fa9cbe7931a5d"},
		"float-switches":   {452, "a5728fdd0d50568bb55ded3a607d4a01f4137478f774ec02905fcbb817becf7f"},
		"measurements":     {434, "55cfaa9cf79e9d88362504d88de9a491497edeea89c203d64dedd48e1c3269b4"},
		"nil-pair-element": {230, "8d46046ca10185fa1f780dd3f50307afa81be0c0160a5841afd181f2c6acbed0"},
		"strings":          {339, "317773991ce02361bec48dd712bbc795bd75b44be5ea6cc74a24c2935f4af788"},
		"test-fixture":     {725, "7d5c183df784fd055c7681bc7b6bd8f01590d9730b6fa0049444424ba552a612"},
		"zero":             {62, "b4b30c58282f5f7de3170231f9c5859135c8c7d049a01763e44c0b0e2f606946"},
	}
	fixtures := adversarialResults()
	if len(fixtures) != len(golden) {
		t.Fatalf("%d fixtures but %d golden entries", len(fixtures), len(golden))
	}
	for name, res := range fixtures {
		t.Run(name, func(t *testing.T) {
			want, ok := golden[name]
			if !ok {
				t.Fatal("fixture has no golden entry")
			}
			v3, err := EncodeBlobV3(k, res)
			if err != nil {
				t.Fatal(err)
			}
			vb, err := ValidateBlobBytes(v3, k.Digest)
			if err != nil {
				t.Fatal(err)
			}
			if vb.RawBytes() != want.rawBytes {
				t.Errorf("RawBytes = %d, want %d", vb.RawBytes(), want.rawBytes)
			}
			body, err := inflateV3(v3)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(body.Bytes())
			if got := hex.EncodeToString(sum[:]); got != want.bodySHA {
				t.Errorf("inflated body sha256 = %s, want %s", got, want.bodySHA)
			}
		})
	}
}

// TestIndexReadsFixtureHeaders: Index describes every fixture blob from
// its bounded header read alone — identity and body size equal what
// Put encoded, for short and 64-byte profile keys alike.
func TestIndexReadsFixtureHeaders(t *testing.T) {
	s := openStore(t)
	want := map[string]ManifestEntry{}
	i := 0
	for name, res := range adversarialResults() {
		for _, profile := range []string{"a100", strings.Repeat("p", 64)} {
			k, err := KeyFor(profile, i, uint64(i), testConfig())
			if err != nil {
				t.Fatal(err)
			}
			i++
			if err := s.Put(k, res); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want[k.Digest] = ManifestEntry{Digest: k.Digest, Profile: profile, Instance: k.Instance,
				Schema: SchemaVersion, RawBytes: bodyLen(t, k, res)}
		}
	}
	ix := s.Index()
	if len(ix) != len(want) {
		t.Fatalf("Index lists %d blobs, want %d", len(ix), len(want))
	}
	for _, e := range ix {
		got := e
		got.Bytes, got.AccessUnixNs = 0, 0
		if got != want[e.Digest] {
			t.Errorf("entry %+v, want %+v", got, want[e.Digest])
		}
	}
}

// TestProfileKeyBound: every blob Put accepts is indexed. The index
// reads a blob from a fixed header prefix, so the profile key is
// bounded: KeyFor and the encoder refuse a key past maxProfileKey, and
// a blob whose body carries one is invalid. A key of any accepted
// length is listed by Index and counted by Len.
func TestProfileKeyBound(t *testing.T) {
	s := openStore(t)
	accepted := 0
	for _, n := range []int{0, 64, maxProfileKey, maxProfileKey + 1, 165, 300} {
		profile := strings.Repeat("p", n)
		k, err := KeyFor(profile, n, 42, testConfig())
		if n > maxProfileKey {
			if err == nil {
				t.Fatalf("KeyFor accepted a %d-byte profile key", n)
			}
			continue
		}
		if err != nil {
			t.Fatalf("KeyFor refused a %d-byte profile key: %v", n, err)
		}
		if err := s.Put(k, testResult()); err != nil {
			t.Fatalf("Put with a %d-byte profile key: %v", n, err)
		}
		accepted++
		if _, ok := s.Get(k); !ok {
			t.Fatalf("Get missed the %d-byte profile key", n)
		}
		if s.Len() != accepted {
			t.Fatalf("Len = %d after %d Puts; the %d-byte profile key is not indexed", s.Len(), accepted, n)
		}
	}

	// The encoder refuses a hand-built key past the bound, naming it once.
	long := Key{Digest: "cafe", Profile: strings.Repeat("p", maxProfileKey+1)}
	if _, err := EncodeBlobV3(long, testResult()); err == nil {
		t.Fatal("EncodeBlobV3 accepted a profile key past the bound")
	} else if strings.Count(err.Error(), long.String()) != 1 {
		t.Fatalf("EncodeBlobV3 error %q does not name the key once", err)
	}
	if err := s.Put(long, testResult()); err == nil {
		t.Fatal("Put accepted a profile key past the bound")
	}

	// A body carrying one is an invalid blob: splice the long profile
	// into a valid body in place of the short one.
	k := Key{Digest: "cafe", Profile: "p"}
	e, err := encodeBody(k, testResult())
	if err != nil {
		t.Fatal(err)
	}
	body := bytes.Clone(e.buf)
	putEncoder(e)
	at := 4 + 8 + 4 + len(k.Digest) // the profile's length prefix
	spliced := append(bytes.Clone(body[:at]), byte(len(long.Profile)), 0, 0, 0)
	spliced = append(append(spliced, long.Profile...), body[at+4+len(k.Profile):]...)
	binary.LittleEndian.PutUint64(spliced[4:], uint64(len(spliced)))
	blob := append(append([]byte(nil), v3Magic[:]...), gzipBytes(t, spliced)...)
	if _, err := ValidateBlob(blob, k.Digest); !errors.Is(err, ErrInvalidBlob) {
		t.Fatalf("blob with a %d-byte profile key: err = %v, want ErrInvalidBlob", len(long.Profile), err)
	}
	if _, err := readV3Header(bytes.NewReader(blob)); err == nil {
		t.Fatal("readV3Header accepted a profile key past the bound")
	}
}
