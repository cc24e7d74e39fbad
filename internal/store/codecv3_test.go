package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
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
// every formatting switch in encoding/json. Every pair is
// campaign-shaped: its measurements' floats, Samples, Injected, Kept and
// Outliers derive from the integers the body stores.
// underivedResults holds the shapes the encoder refuses.
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
				{Pair: core.Pair{InitMHz: 210, TargetMHz: 1980}, Samples: []float64{}, Injected: []float64{}},
			},
		},
		"strings": {
			DeviceName:   `<A100 & "friends">`,
			Architecture: "ctl:\x01\x02\t\n\r\b\f del:\x7f bad:\xff\xe4\xb8 sep:   uni:héllo→世界",
			Pairs: []*core.PairResult{{
				Samples:    []float64{},
				Injected:   []float64{},
				Skipped:    true,
				SkipReason: `power "throttling" <unsustainable> & hot`,
			}},
		},
		"float-switches": {
			Phase1: &core.Phase1Result{
				Stats: map[float64]core.FreqStats{
					1410: {FreqMHz: 1410, Iter: stats.MeanStd{N: 3, Mean: nan, Std: inf}},
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
				Pair:     core.Pair{InitMHz: 1e21, TargetMHz: 9.9e-7},
				Samples:  []float64{},
				Injected: []float64{},
				Summary: stats.Summary{N: 5, Mean: nan, Std: oddNaN, Min: math.Inf(-1), Q05: -0.0625,
					Q25: math.Copysign(0, -1), Median: 1e-30, Q75: 1e21, Q95: math.MaxFloat64, Max: inf},
				FinalRSE: nan,
			}},
		},
		"clusters": {
			CaptureHintNs: -9_223_372_036_854_775_808,
			Pairs: []*core.PairResult{
				{
					Pair: core.Pair{InitMHz: 210, TargetMHz: 825},
					Measurements: []core.Measurement{
						{Pair: core.Pair{InitMHz: 210, TargetMHz: 825}, LatencyMs: 1.5, TeDevNs: 1_500_000, InjectedMs: nan},
						{Pair: core.Pair{InitMHz: 210, TargetMHz: 825}, LatencyMs: 2.5, TeDevNs: 2_500_000, InjectedMs: nan},
						{Pair: core.Pair{InitMHz: 210, TargetMHz: 825}, LatencyMs: 3.5, TeDevNs: 3_500_000, InjectedMs: nan},
					},
					Samples:  []float64{1.5, 2.5, 3.5},
					Injected: []float64{nan, nan, nan},
					Kept:     []float64{1.5, 2.5},
					Outliers: []float64{3.5},
					Clusters: &cluster.Result{Labels: []int{0, 0, cluster.Noise}, NumClusters: 1, Eps: nan, MinPts: 4},
				},
				{
					Pair:     core.Pair{InitMHz: 825, TargetMHz: 210},
					Samples:  []float64{},
					Injected: []float64{},
					Kept:     []float64{},
					Clusters: &cluster.Result{Labels: []int{}, Eps: 0.25},
				},
				{
					Samples:  []float64{},
					Injected: []float64{},
					Kept:     []float64{},
					Clusters: &cluster.Result{}, // Labels nil
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
						LatencyMs: 12.25, TsDevNs: 100, TeDevNs: 12_250_100,
						SM: 107, TransitionIndex: 9_999, InjectedMs: nan,
						SyncSpreadNs: -1,
					},
					{ // t_s before the previous one's: a negative delta
						Pair:      core.Pair{InitMHz: 330, TargetMHz: 1410},
						LatencyMs: 13, TsDevNs: -7, TeDevNs: 12_999_993,
						InjectedMs: -0.000001, SyncSpreadNs: math.MaxInt64,
					},
				},
				Samples:  []float64{12.25, 13},
				Injected: []float64{nan, -0.000001},
				Attempts: 7, Failures: 2, DiscardedByThrottle: 3, ThrottleEvents: 1,
				Kept: []float64{12.25}, Outliers: []float64{13},
				Clusters: &cluster.Result{Labels: []int{0, cluster.Noise}, NumClusters: 1, Eps: 0.5, MinPts: 2},
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
// accept such a result.
func TestCanonicalWriterRejectsNonFiniteFloats(t *testing.T) {
	bad := map[string]*core.Result{
		"nan-pair": {Pairs: []*core.PairResult{{Pair: core.Pair{InitMHz: math.NaN()}, Samples: []float64{}, Injected: []float64{}}}},
		"inf-unstable": {Phase1: &core.Phase1Result{
			Unstable: []float64{math.Inf(1)},
		}},
	}
	for name, res := range bad {
		t.Run(name, func(t *testing.T) { mustRefuse(t, openStore(t), res) })
	}
}

// mustRefuse asserts that EncodeBlobV3 and s.Put both refuse res, each
// naming the key once, and that the refused Put leaves nothing behind:
// no index entry, no blob, no staging file. It returns the encoder's
// error.
func mustRefuse(t *testing.T, s *Store, res *core.Result) error {
	t.Helper()
	k := Key{Digest: "cafe", Profile: "p", Instance: 0}
	prefix := "store: encode " + k.String()
	_, encErr := EncodeBlobV3(k, res)
	if encErr == nil {
		t.Fatal("EncodeBlobV3 accepted a result it cannot encode")
	} else if n := strings.Count(encErr.Error(), "store: encode"); n != 1 || !strings.HasPrefix(encErr.Error(), prefix) {
		t.Fatalf("EncodeBlobV3 error %q: want the %q prefix exactly once", encErr, prefix)
	}
	err := s.Put(k, res)
	if err == nil {
		t.Fatal("Put accepted a result EncodeBlobV3 refuses")
	}
	if n := strings.Count(err.Error(), "store: encode"); n != 1 || !strings.Contains(err.Error(), prefix) {
		t.Fatalf("Put error %q: want %q exactly once", err, prefix)
	}
	if s.Len() != 0 {
		t.Fatalf("refused Put left %d index entries", s.Len())
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() == k.blobName() || strings.HasPrefix(e.Name(), tmpPrefix) {
			t.Fatalf("refused Put left %s in the store dir", e.Name())
		}
	}
	return encErr
}

// TestEncodeRefusesUnderivedPairs: the body stores a pair's
// measurements as integers and rebuilds every float derived from them,
// so a result whose fields do not derive so has no encoding. Each case
// breaks one field of the campaign-shaped testResult; EncodeBlobV3 and
// Put refuse it, naming the pair and the field.
func TestEncodeRefusesUnderivedPairs(t *testing.T) {
	const (
		meas     = "pair 0 (705→1410 MHz): a measurement's Pair, LatencyMs or InjectedMs"
		samples  = "pair 0 (705→1410 MHz): Samples"
		injected = "pair 0 (705→1410 MHz): Injected"
		parts    = "pair 0 (705→1410 MHz): Kept and Outliers"
	)
	for name, c := range map[string]struct {
		change func(pr, skipped *core.PairResult)
		want   string
	}{
		"latency-not-from-integers": {func(pr, _ *core.PairResult) { pr.Measurements[0].LatencyMs = 13.12345678901234 }, meas},
		"nan-latency":               {func(pr, _ *core.PairResult) { pr.Measurements[0].LatencyMs = math.NaN() }, meas},
		"injected-fraction-of-ns":   {func(pr, _ *core.PairResult) { pr.Measurements[0].InjectedMs = 0.1234567891 }, meas},
		"injected-inf":              {func(pr, _ *core.PairResult) { pr.Measurements[0].InjectedMs = math.Inf(1) }, meas},
		"injected-negative-zero":    {func(pr, _ *core.PairResult) { pr.Measurements[0].InjectedMs = math.Copysign(0, -1) }, meas},
		"measurement-pair":          {func(pr, _ *core.PairResult) { pr.Measurements[0].Pair = core.Pair{InitMHz: 1410, TargetMHz: 705} }, meas},
		"samples-nil":               {func(pr, _ *core.PairResult) { pr.Samples = nil }, samples},
		"samples-longer":            {func(pr, _ *core.PairResult) { pr.Samples = append(pr.Samples, 13) }, samples},
		"samples-differ":            {func(pr, _ *core.PairResult) { pr.Samples[0] = math.NaN() }, samples},
		"injected-nil":              {func(pr, _ *core.PairResult) { pr.Injected = nil }, injected},
		"injected-differ":           {func(pr, _ *core.PairResult) { pr.Injected[0] = 0 }, injected},
		"outliers-empty-not-nil":    {func(pr, _ *core.PairResult) { pr.Outliers = []float64{} }, parts},
		"kept-extra":                {func(pr, _ *core.PairResult) { pr.Kept = append(pr.Kept, 1) }, parts},
		"labels-short":              {func(pr, _ *core.PairResult) { pr.Clusters.Labels = nil }, parts},
		"kept-nil-unclustered":      {func(pr, _ *core.PairResult) { pr.Clusters, pr.Kept = nil, nil }, parts},
		"second-pair-samples-nil":   {func(_, sk *core.PairResult) { sk.Samples = nil }, "pair 1 (1410→705 MHz): Samples"},
	} {
		t.Run(name, func(t *testing.T) {
			res := testResult()
			c.change(res.Pairs[0], res.Pairs[1])
			if err := mustRefuse(t, openStore(t), res); !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not name %q", err, c.want)
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
		res := testResult()
		res.Phase1.Stats[885] = core.FreqStats{FreqMHz: 885, Iter: stats.MeanStd{N: 1, Mean: v, Std: v}}
		res.Pairs[0].Summary.Std = v
		res.Pairs[0].FinalRSE = v
		return res
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
// schema 10).
func TestV3GoldenBytes(t *testing.T) {
	k := Key{Digest: "cafe", Profile: "a100-sxm4", Instance: 2}
	golden := map[string]struct {
		rawBytes int64
		bodySHA  string
	}{
		"clusters":         {734, "0e7674515b8d826305cb975659c452f551c17b104c14149b32442b32bc4ad8a6"},
		"codec-fixture":    {32973, "4d6bd649bf6783c2c90948d45a34249fa84ecb98f067e7a12e95c3985f55af4d"},
		"empty-slices":     {78, "b4b4acf1b97392f5c9a6558580cb8fc76abb2255ed2901faca4ea8d50b74265b"},
		"float-switches":   {393, "861d92a5c7c00f71123098aa886f8ebaa3716a9669bf5fe87d6244c1e25380f4"},
		"measurements":     {352, "8697348946826e3d089b4754515a71bdad8a49ade1ea0a8c94b4504fd72a80b4"},
		"nil-pair-element": {214, "a152e01706b3eded2ac23bbcf773566dfcbd44778bd1605de60eec374a357699"},
		"strings":          {323, "790cc5f2b82b5fbf09719f861ce4f80353ed2bdc95e3a1f03778b4fa60545789"},
		"test-fixture":     {635, "ce03806cca9281800020dad7cba29869ced0aecad143227d54fc50d76ae8c12f"},
		"zero":             {62, "8c1b298ace53c2729868405f8b3ced48adeb948e64a43e8bac59c67b7e038a0d"},
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

// randFloat draws a measured float: raw random bits, a NaN with a
// random sign and payload (quiet or signalling), ±Inf, ±0, a number of
// whole nanoseconds in ms, or a normal draw.
func randFloat(r *rand.Rand) float64 {
	switch r.IntN(6) {
	case 0:
		return math.Float64frombits(r.Uint64())
	case 1:
		payload := r.Uint64()&(1<<52-1) | 1<<uint(r.IntN(52))
		return math.Float64frombits(r.Uint64()&(1<<63) | 0x7ff<<52 | payload)
	case 2:
		return math.Inf(1 - 2*r.IntN(2))
	case 3:
		return math.Copysign(0, float64(1-2*r.IntN(2)))
	case 4:
		return float64(r.Int64N(1e10)) / 1e6
	}
	return r.NormFloat64()
}

// randFloats draws a slice of measured floats, nil or empty included.
func randFloats(r *rand.Rand) []float64 {
	switch r.IntN(4) {
	case 0:
		return nil
	case 1:
		return []float64{}
	}
	xs := make([]float64, 1+r.IntN(6))
	for i := range xs {
		xs[i] = randFloat(r)
	}
	return xs
}

// randPair draws a finite pair, sometimes -0 or a huge clock.
func randPair(r *rand.Rand) core.Pair {
	f := func() float64 {
		switch r.IntN(4) {
		case 0:
			return math.Copysign(0, -1)
		case 1:
			return math.MaxFloat64 * r.Float64()
		}
		return float64(210 + 15*r.IntN(100))
	}
	return core.Pair{InitMHz: f(), TargetMHz: f()}
}

// randPairResult draws a campaign-shaped pair result: measurements of
// random integers (wrapping spans, NaN or whole-nanosecond injected
// latencies), Samples and Injected their floats, labels that fit a byte
// or not, and Kept and Outliers the label partition; every other field
// is random.
func randPairResult(r *rand.Rand) *core.PairResult {
	pr := &core.PairResult{
		Pair:                randPair(r),
		Attempts:            r.IntN(100),
		Failures:            int(r.Int64()),
		DiscardedByThrottle: r.IntN(3),
		ThrottleEvents:      -r.IntN(3),
		Skipped:             r.IntN(4) == 0,
		SkipReason:          strings.Repeat("é", r.IntN(3)),
		FinalRSE:            randFloat(r),
	}
	for i, n := 0, r.IntN(7); i < n; i++ {
		m := core.Measurement{
			Pair:            pr.Pair,
			TsDevNs:         r.Int64() >> uint(r.IntN(64)),
			TeDevNs:         r.Int64() >> uint(r.IntN(64)),
			SM:              int(r.Uint64()) >> uint(r.IntN(64)),
			TransitionIndex: r.IntN(2000),
			SyncSpreadNs:    -r.Int64(),
			InjectedMs:      float64(r.Int64()>>uint(r.IntN(64))) / 1e6,
		}
		m.LatencyMs = float64(m.TeDevNs-m.TsDevNs) / 1e6
		if _, ok := injectedNs(m.InjectedMs); !ok || r.IntN(3) == 0 {
			m.InjectedMs = math.Float64frombits(0x7ff8<<48 | r.Uint64()>>13) // a NaN of any payload derives
		}
		pr.Measurements = append(pr.Measurements, m)
	}
	if pr.Measurements == nil && r.IntN(2) == 0 {
		pr.Measurements = []core.Measurement{}
	}
	pr.Samples = derivedFloats(pr.Measurements, latencyOf)
	pr.Injected = derivedFloats(pr.Measurements, injectedOf)
	if r.IntN(3) > 0 {
		c := &cluster.Result{NumClusters: r.IntN(4), Eps: randFloat(r), MinPts: r.IntN(9)}
		if len(pr.Samples) > 0 || r.IntN(2) == 0 {
			c.Labels = make([]int, len(pr.Samples))
		}
		wide := r.IntN(5) == 0
		for i := range c.Labels {
			c.Labels[i] = r.IntN(3) - 1
			if wide && r.IntN(2) == 0 {
				c.Labels[i] = []int{-2, 255, 256, math.MaxInt, math.MinInt}[r.IntN(5)]
			}
		}
		pr.Clusters = c
	}
	pr.Kept, pr.Outliers, _ = partition(pr.Samples, pr.Clusters)
	pr.Summary = stats.Summary{N: r.IntN(50), Mean: randFloat(r), Std: randFloat(r), Min: randFloat(r),
		Q05: randFloat(r), Q25: randFloat(r), Median: randFloat(r), Q75: randFloat(r), Q95: randFloat(r), Max: randFloat(r)}
	return pr
}

// breakPair changes one field of the campaign-shaped pr so that it no
// longer derives from the integers the body stores, and returns how the
// encoder's refusal names that field.
func breakPair(r *rand.Rand, pr *core.PairResult) string {
	nudge := func(v float64) float64 { return math.Nextafter(v, math.Inf(1)) }
	for {
		switch r.IntN(4) {
		case 0:
			if len(pr.Measurements) == 0 {
				continue
			}
			m := &pr.Measurements[r.IntN(len(pr.Measurements))]
			switch r.IntN(4) {
			case 0:
				m.LatencyMs = nudge(m.LatencyMs)
			case 1:
				m.Pair.TargetMHz = nudge(m.Pair.TargetMHz)
			case 2:
				m.InjectedMs = []float64{math.Copysign(0, -1), math.Inf(-1), 0.1234567891}[r.IntN(3)]
			default:
				m.LatencyMs = math.NaN()
			}
			return "a measurement's Pair, LatencyMs or InjectedMs"
		case 1:
			switch {
			case r.IntN(3) == 0:
				pr.Samples = nil
			case len(pr.Samples) > 0 && r.IntN(2) == 0:
				i := r.IntN(len(pr.Samples))
				pr.Samples[i] = nudge(pr.Samples[i])
			default:
				pr.Samples = append(pr.Samples, randFloat(r))
			}
			return "Samples is not"
		case 2:
			switch {
			case r.IntN(3) == 0:
				pr.Injected = nil
			case len(pr.Injected) > 0 && r.IntN(2) == 0:
				i := r.IntN(len(pr.Injected))
				if math.IsNaN(pr.Injected[i]) {
					pr.Injected[i] = 0
				} else {
					pr.Injected[i] = math.NaN()
				}
			default:
				pr.Injected = append(pr.Injected, randFloat(r))
			}
			return "Injected is not"
		default:
			switch {
			case pr.Outliers == nil && r.IntN(2) == 0:
				pr.Outliers = []float64{}
			case pr.Clusters != nil && r.IntN(2) == 0:
				pr.Clusters.Labels = append(pr.Clusters.Labels, 0)
			default:
				pr.Kept = append(pr.Kept, randFloat(r))
			}
			return "Kept and Outliers"
		}
	}
}

// randResult draws a result of up to four pair slots, some nil.
func randResult(r *rand.Rand) *core.Result {
	res := &core.Result{DeviceName: "d", CaptureHintNs: r.Int64()}
	for i, n := 0, r.IntN(4); i < n; i++ {
		if r.IntN(6) == 0 {
			res.Pairs = append(res.Pairs, nil)
		} else {
			res.Pairs = append(res.Pairs, randPairResult(r))
		}
	}
	return res
}

// TestV3RoundTripProperty: random campaign-shaped results decode to
// themselves (NaN payloads aside) and encode deterministically. Both
// label widths and measured pairs must be seen.
func TestV3RoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewPCG(9, 42))
	k := Key{Digest: "cafe", Profile: "p", Instance: 1}
	var byteLabels, wideLabels, measured int
	for iter := 0; iter < 2000; iter++ {
		res := randResult(r)
		for _, pr := range res.Pairs {
			if pr == nil {
				continue
			}
			if len(pr.Measurements) > 0 {
				measured++
			}
			if c := pr.Clusters; c != nil && len(c.Labels) > 0 {
				if labelsFitBytes(c.Labels) {
					byteLabels++
				} else {
					wideLabels++
				}
			}
		}
		blob, err := EncodeBlobV3(k, res)
		if err != nil {
			t.Fatalf("iteration %d: %v", iter, err)
		}
		got, err := ValidateBlob(blob, k.Digest)
		if err != nil {
			t.Fatalf("iteration %d: %v", iter, err)
		}
		if d := diffResult(reflect.ValueOf(got).Elem(), reflect.ValueOf(res).Elem(), "Result"); d != "" {
			t.Fatalf("iteration %d: round trip changed %s", iter, d)
		}
		again, err := EncodeBlobV3(k, got)
		if err != nil || !bytes.Equal(again, blob) {
			t.Fatalf("iteration %d: re-encoding the decoded result changed the bytes (err=%v)", iter, err)
		}
	}
	if byteLabels == 0 || wideLabels == 0 || measured == 0 {
		t.Errorf("labels: %d byte-wide, %d wide; %d measured pairs; want each", byteLabels, wideLabels, measured)
	}
}

// TestV3RefusesUnderivedProperty: a random campaign-shaped result with
// one field of one pair broken so that it no longer derives is refused
// by EncodeBlobV3 and by Put, which writes nothing; the error names the
// pair and the field. Every kind of break must be seen.
func TestV3RefusesUnderivedProperty(t *testing.T) {
	r := rand.New(rand.NewPCG(10, 42))
	s := openStore(t)
	seen := map[string]int{}
	for iter := 0; iter < 1000; iter++ {
		res := randResult(r)
		res.Pairs = append(res.Pairs, randPairResult(r))
		i := r.IntN(len(res.Pairs))
		for res.Pairs[i] == nil {
			i = (i + 1) % len(res.Pairs)
		}
		why := breakPair(r, res.Pairs[i])
		seen[why]++
		err := mustRefuse(t, s, res)
		if want := fmt.Sprintf("pair %d (%v): %s", i, res.Pairs[i].Pair, why); !strings.Contains(err.Error(), want) {
			t.Fatalf("iteration %d: error %q does not name %q", iter, err, want)
		}
	}
	if len(seen) != 4 {
		t.Errorf("breaks seen: %v; want all four fields", seen)
	}
}
