// Command perfbench is the repository benchmark. It runs one workload of
// the real CLIs (cmd/experiments, and cmd/stored on remote-warm) built
// from the checkout, checks their artefacts byte for byte, and prints its
// metrics as the last line of standard output:
//
//	{"correct": true, "attempted": 1, "failed": 0, "metrics": {...}}
//
// run.sh builds everything and runs it:
//
//	bash perfbench/run.sh --workload cold-quick --seed 1 --seconds 5 --trace 0
//
// All workloads are closed loops: one CLI invocation at a time, from this
// single client process.
//
//   - cold-quick: `experiments -scale quick` (all artefacts) into an empty
//     -cache-dir. The regenerate-the-paper path; the simulator and core
//     do nearly all the work and the store does a handful of Puts.
//   - warm-quick: the same command against a -cache-dir filled during
//     set-up by a cold run of the same seed. The repeat-run path; most of
//     its time is campaigns that bypass the store.
//   - remote-warm: at least 100 rounds, each a fresh CLI process against
//     a loopback stored seeded during set-up, with a fresh -cache-dir,
//     -lease-ttl 1m and the store-backed artefact subset. The cross-host
//     path: wire, validation, decode and local-tier writes.
//
// Times are host wall-clock less the CPU time the hypervisor stole from
// the machine meanwhile (the steal column of /proc/stat; nothing on bare
// metal): on a shared virtual machine a busy neighbour otherwise reads as
// a program a third slower or more. The timed and host lines print the
// time stolen.
//
// With --trace 0 the run reports the end-to-end metrics: wall_s and cpu_s
// per pass (one CLI invocation on the quick workloads, 100 rounds on
// remote-warm; cpu_s includes the daemon), setup_s, peak_rss_mb, round_p50_ms/round_p90_ms over the invocations
// (a quick run makes one invocation, so both equal its wall time), and
// est_err_p50_ms/est_err_p99_ms, the |Samples − Injected| error of
// every measurement in the store the run produced. Failed invocations
// are the result line's "failed" count, out of "attempted".
//
// With --trace 1 the run repeats the workload once through the CLI and
// once in process, timing calls into each layer's public functions, and
// reports the per-layer metrics. Which end-to-end metric each layer
// metric should move, and on which workload:
//
//	sim.*            wall_s, cpu_s on cold-quick (and warm-quick until its
//	                 campaigns go through the store); not remote-warm
//	core.*           wall_s on cold-quick; the counts also move est_err_*
//	cluster.*,       expected to move nothing (under 1 ms per campaign)
//	stats.*
//	experiments.*    wall_s on warm-quick
//	fleet.*          wall_s on cold-quick, round_* on remote-warm
//	store.*          round_* on remote-warm; wall_s on warm-quick once its
//	                 campaigns go through the store
//	storenet.*       round_* and cpu_s on remote-warm; not cold-quick
//	report.render_s  wall_s on warm-quick and remote-warm
//	obs.*            traced wall minus untraced wall of the same work
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: cold-quick, warm-quick or remote-warm")
		seed    = flag.Uint64("seed", 1, "campaign seed handed to every CLI invocation")
		seconds = flag.Int("seconds", 5, "minimum length of the timed phase in seconds")
		trace   = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
		bin     = flag.String("bin", "", "directory holding the built experiments and stored binaries")
		work    = flag.String("work", "", "scratch directory for stores and artefacts (emptied on exit)")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *bin == "" || *work == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -bin, -work, -seconds >= 1, -trace 0|1 and -workload cold-quick|warm-quick|remote-warm")
		os.Exit(2)
	}
	dir := filepath.Join(*work, fmt.Sprintf("%s-%d-%d", *name, *seed, os.Getpid()))
	b := &bench{
		bin:     *bin,
		dir:     dir,
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
	}
	steal := stolenCPU()
	res, err := b.run(w, *trace == 1)
	steal = stolenCPU() - steal
	if rmErr := os.RemoveAll(dir); rmErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", rmErr)
	}
	if err != nil {
		b.fail("%v", err)
	}
	fmt.Printf("host: nproc=%d GOMAXPROCS=%d go=%s workload=%s seed=%d rounds=%d attempted=%d failed=%d steal_s=%.2f\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), *name, *seed,
		b.rounds, b.attempted, b.failed, steal.Seconds())
	for _, p := range b.problems {
		fmt.Println("FAIL:", p)
	}
	if b.attempted == 0 {
		b.attempted = 1 // a run that failed before its first invocation
		b.failed = 1
	}
	line, err := json.Marshal(result{
		Correct:   len(b.problems) == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   res,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if len(b.problems) > 0 {
		os.Exit(1)
	}
}
