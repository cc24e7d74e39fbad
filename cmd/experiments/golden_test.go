package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// The golden files pin the outputs of `experiments -scale quick` and
// `-scale full`: one sha256sum line per artefact (out/NAME) and per
// store blob (cache/DIGEST.json), so `sha256sum -c` checks a manual run
// made with `-out out -cache-dir cache` too. Blobs are hashed as
// stored, in the gzip container, so a toolchain whose compress/flate
// output differs would re-pin them.
const (
	quickGolden = "testdata/quick.sha256"
	fullGolden  = "testdata/full.sha256"
)

// TestQuickGolden runs the whole quick set cold into an empty store,
// then warm from it, and compares every artefact and blob with
// quickGolden after each leg. A copy of the test binary re-runs it at
// GOMAXPROCS=1 meanwhile: the measurement-step pool is sized once at
// start-up, so only a new process covers the pool-size leg. With
// GOLDEN_UPDATE=1 the cold leg rewrites the file instead; a change that
// re-pins says why.
func TestQuickGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole quick set cold and warm")
	}
	checkGolden(t, "quick", quickGolden)
}

// TestFullGolden is TestQuickGolden for `-scale full`, against
// fullGolden. It takes a few seconds more than the quick set, so it runs
// only with GOLDEN_FULL=1 (scripts/ci.sh sets it); GOLDEN_UPDATE=1
// re-pins under the same rule.
func TestFullGolden(t *testing.T) {
	if os.Getenv("GOLDEN_FULL") != "1" {
		t.Skip("runs the whole full set cold and warm; set GOLDEN_FULL=1")
	}
	checkGolden(t, "full", fullGolden)
}

// checkGolden runs the set of the given scale cold into an empty store,
// then warm from it, comparing every artefact and blob with the golden
// file after each leg, while a copy of the test binary runs the calling
// test at GOMAXPROCS=1; with GOLDEN_UPDATE=1 the cold leg rewrites the
// file instead.
func checkGolden(t *testing.T, scale, golden string) {
	update := os.Getenv("GOLDEN_UPDATE") == "1"
	var serial *exec.Cmd
	var serialOut bytes.Buffer
	if runtime.GOMAXPROCS(0) > 1 && !update {
		serial = exec.Command(os.Args[0], "-test.run=^"+t.Name()+"$", "-test.count=1")
		serial.Env = append(os.Environ(), "GOMAXPROCS=1")
		serial.Stdout, serial.Stderr = &serialOut, &serialOut
		if err := serial.Start(); err != nil {
			t.Fatal(err)
		}
		// A failed leg below must not leave the copy running.
		t.Cleanup(func() {
			if serial.ProcessState == nil {
				_ = serial.Process.Kill()
				_ = serial.Wait()
			}
		})
	}

	root := t.TempDir()
	args := []string{"-scale", scale, "-out", filepath.Join(root, "out"),
		"-cache-dir", filepath.Join(root, "cache")}
	for _, leg := range []struct{ name, stats string }{
		{"cold", " 0 hits, 6 misses, 6 writes"},
		{"warm", " 6 hits, 0 misses, 0 writes"},
	} {
		var log bytes.Buffer
		if err := run(args, &log); err != nil {
			t.Fatalf("%s run: %v", leg.name, err)
		}
		if !strings.Contains(log.String(), leg.stats) {
			t.Fatalf("%s run: cache stats lack %q:\n%s", leg.name, leg.stats, log.String())
		}
		got := hashTree(t, root)
		if update && leg.name == "cold" {
			writeGolden(t, golden, got)
			continue
		}
		compareGolden(t, leg.name, golden, got)
	}

	if serial != nil {
		if err := serial.Wait(); err != nil {
			t.Fatalf("GOMAXPROCS=1 run: %v\n%s", err, serialOut.String())
		}
	}
}

// hashTree returns the sha256 of every file under root's out/ and
// cache/ directories, keyed by its slash-separated path below root.
func hashTree(t *testing.T, root string) map[string]string {
	t.Helper()
	sums := map[string]string{}
	for _, dir := range []string{"out", "cache"} {
		entries, err := os.ReadDir(filepath.Join(root, dir))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.IsDir() {
				t.Fatalf("unexpected directory %s/%s", dir, e.Name())
			}
			data, err := os.ReadFile(filepath.Join(root, dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(data)
			sums[dir+"/"+e.Name()] = hex.EncodeToString(sum[:])
		}
	}
	return sums
}

// compareGolden fails the test with every path whose sum differs from,
// is missing from or is absent in the golden file.
func compareGolden(t *testing.T, leg, golden string, got map[string]string) {
	t.Helper()
	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (GOLDEN_UPDATE=1 writes it)", err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		sum, path, ok := strings.Cut(line, "  ")
		if !ok {
			t.Fatalf("%s: malformed line %q", golden, line)
		}
		want[path] = sum
	}
	var diffs []string
	for path, sum := range want {
		switch g, ok := got[path]; {
		case !ok:
			diffs = append(diffs, "missing "+path)
		case g != sum:
			diffs = append(diffs, "changed "+path)
		}
	}
	for path := range got {
		if _, ok := want[path]; !ok {
			diffs = append(diffs, "unexpected "+path)
		}
	}
	if len(diffs) > 0 {
		sort.Strings(diffs)
		t.Fatalf("%s run differs from %s (GOLDEN_UPDATE=1 re-pins):\n%s",
			leg, golden, strings.Join(diffs, "\n"))
	}
}

// writeGolden writes sums to the golden file in sha256sum format,
// sorted by path.
func writeGolden(t *testing.T, golden string, sums map[string]string) {
	t.Helper()
	paths := make([]string, 0, len(sums))
	for path := range sums {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	var b strings.Builder
	for _, path := range paths {
		fmt.Fprintf(&b, "%s  %s\n", sums[path], path)
	}
	if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s: %d files", golden, len(paths))
}
