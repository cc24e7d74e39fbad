// Package cpu models a single DVFS-capable CPU core for the FTaLaT
// baseline (§III–IV): the same iterative arithmetic workload as the GPU
// microbenchmark, but executed synchronously on the host with
// nanosecond-resolution timestamps and microsecond-scale frequency
// transition latencies — the regime in which FTaLaT's confidence-interval
// detection works well.
//
// The contrast this package enables is the paper's headline comparison:
// CPUs complete transitions in microseconds to low milliseconds, GPUs in
// tens to hundreds of milliseconds.
package cpu

import (
	"fmt"

	"golatest/internal/sim/clock"
)

// TransitionModel samples the core's frequency transition duration.
type TransitionModel interface {
	// SampleNs returns the transition duration in nanoseconds for a
	// change from initMHz to targetMHz.
	SampleNs(initMHz, targetMHz float64, r *clock.Rand) int64
}

// UniformTransition is the simple CPU transition model: a base duration
// plus uniform jitter, optionally longer for upward changes (voltage must
// rise before frequency can — the Skylake behaviour of the paper's
// Fig. 1).
type UniformTransition struct {
	BaseNs   int64
	JitterNs int64
	// UpPenaltyNs is added when targetMHz > initMHz.
	UpPenaltyNs int64
}

// SampleNs implements TransitionModel.
func (m UniformTransition) SampleNs(initMHz, targetMHz float64, r *clock.Rand) int64 {
	d := m.BaseNs
	if targetMHz > initMHz {
		d += m.UpPenaltyNs
	}
	if m.JitterNs > 0 && r != nil {
		d += int64(r.Uniform(0, float64(m.JitterNs)))
	}
	if d < 0 {
		d = 0
	}
	return d
}

// writeCostNs is the host cost of the sysfs/MSR write requesting a
// frequency change.
const writeCostNs = 2000

// Config describes the simulated core.
type Config struct {
	Name     string
	FreqsMHz []float64 // supported P-state frequencies, ascending
	// DefaultFreqMHz is the frequency at reset (defaults to max).
	DefaultFreqMHz float64
	// Transition samples the frequency-change latency (required).
	Transition TransitionModel
	// TimerResolutionNs quantises timestamp reads (default 1 ns, a
	// TSC-class timer; the CUDA global timer is three orders of magnitude
	// coarser — see the paper's footnote 1).
	TimerResolutionNs int64
	// IterJitterSigma is the relative per-iteration execution noise
	// (default 0.004).
	IterJitterSigma float64
	Seed            uint64
}

func (c Config) normalize() (Config, error) {
	if c.Name == "" {
		return c, fmt.Errorf("cpu: config missing Name")
	}
	if len(c.FreqsMHz) == 0 {
		return c, fmt.Errorf("cpu: %s: no frequency steps", c.Name)
	}
	for i := 1; i < len(c.FreqsMHz); i++ {
		if c.FreqsMHz[i] <= c.FreqsMHz[i-1] {
			return c, fmt.Errorf("cpu: %s: FreqsMHz not strictly ascending", c.Name)
		}
	}
	if c.FreqsMHz[0] <= 0 {
		return c, fmt.Errorf("cpu: %s: non-positive frequency", c.Name)
	}
	if c.Transition == nil {
		return c, fmt.Errorf("cpu: %s: nil TransitionModel", c.Name)
	}
	if c.DefaultFreqMHz == 0 {
		c.DefaultFreqMHz = c.FreqsMHz[len(c.FreqsMHz)-1]
	}
	found := false
	for _, f := range c.FreqsMHz {
		if f == c.DefaultFreqMHz {
			found = true
		}
	}
	if !found {
		return c, fmt.Errorf("cpu: %s: default frequency %v not in step table", c.Name, c.DefaultFreqMHz)
	}
	if c.TimerResolutionNs == 0 {
		c.TimerResolutionNs = 1
	}
	if c.IterJitterSigma == 0 {
		c.IterJitterSigma = 0.004
	}
	return c, nil
}

// Injection is the ground-truth record of a CPU frequency change.
type Injection struct {
	RequestNs  int64
	CompleteNs int64
	InitMHz    float64
	TargetMHz  float64
}

// TransitionLatencyNs returns the ground-truth transition latency.
func (in Injection) TransitionLatencyNs() int64 { return in.CompleteNs - in.RequestNs }

// IterSample is one timed workload iteration (host timestamps, quantised
// to the timer resolution).
type IterSample struct {
	StartNs int64
	EndNs   int64
}

// DurNs returns the iteration duration.
func (s IterSample) DurNs() int64 { return s.EndNs - s.StartNs }

// Core is one simulated DVFS CPU core.
type Core struct {
	cfg Config
	clk *clock.Clock
	rng *clock.Rand

	curFreq  float64
	pendFreq float64
	pendAtNs int64 // host time the pending change completes; 0 = none
}

// New constructs a core bound to the host clock.
func New(cfg Config, clk *clock.Clock) (*Core, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	return &Core{
		cfg:     cfg,
		clk:     clk,
		rng:     clock.NewRand(cfg.Seed, 0x637075), // "cpu"
		curFreq: cfg.DefaultFreqMHz,
	}, nil
}

// Config returns the normalised configuration.
func (c *Core) Config() Config { return c.cfg }

// Clock returns the host clock the core runs against.
func (c *Core) Clock() *clock.Clock { return c.clk }

// settle applies a pending frequency change whose completion time has
// passed.
func (c *Core) settle() {
	if c.pendAtNs != 0 && c.clk.Now() >= c.pendAtNs {
		c.curFreq = c.pendFreq
		c.pendAtNs = 0
	}
}

// CurrentFreqMHz reports the frequency effective now.
func (c *Core) CurrentFreqMHz() float64 {
	c.settle()
	return c.curFreq
}

// SetFrequency requests a P-state change. The call blocks the host for
// the register-write cost; the change completes after the sampled
// transition latency. Overlapping a pending change supersedes it
// (hardware leaves this undefined; §III notes the Haswell behaviour).
func (c *Core) SetFrequency(targetMHz float64) (Injection, error) {
	supported := false
	for _, f := range c.cfg.FreqsMHz {
		if f == targetMHz {
			supported = true
		}
	}
	if !supported {
		return Injection{}, fmt.Errorf("cpu: %s: unsupported frequency %v MHz", c.cfg.Name, targetMHz)
	}
	c.clk.Advance(writeCostNs)
	c.settle()
	now := c.clk.Now()
	dur := c.cfg.Transition.SampleNs(c.curFreq, targetMHz, c.rng)
	inj := Injection{
		RequestNs:  now,
		CompleteNs: now + dur,
		InitMHz:    c.curFreq,
		TargetMHz:  targetMHz,
	}
	if targetMHz == c.curFreq {
		inj.CompleteNs = now
	}
	c.pendFreq = targetMHz
	c.pendAtNs = inj.CompleteNs
	return inj, nil
}

// RunIterations executes n workload iterations of the given cycle budget
// synchronously, advancing the host clock, and returns their timestamps.
// Iterations crossing a transition boundary blend the two frequencies,
// exactly like the GPU integration.
func (c *Core) RunIterations(n int, cyclesPerIter float64) ([]IterSample, error) {
	if n <= 0 || cyclesPerIter <= 0 {
		return nil, fmt.Errorf("cpu: invalid workload n=%d cycles=%v", n, cyclesPerIter)
	}
	out := make([]IterSample, n)
	for i := 0; i < n; i++ {
		start := c.clk.Now()
		jitter := c.rng.Normal(1, c.cfg.IterJitterSigma)
		if jitter < 0.5 {
			jitter = 0.5
		}
		c.advanceCycles(cyclesPerIter * jitter)
		out[i] = IterSample{StartNs: c.quantize(start), EndNs: c.quantize(c.clk.Now())}
	}
	return out, nil
}

// advanceCycles consumes the cycle budget across the (at most one)
// pending frequency boundary.
func (c *Core) advanceCycles(cycles float64) {
	for cycles > 0 {
		c.settle()
		rate := c.curFreq / 1000 // cycles per ns
		if c.pendAtNs == 0 {
			c.clk.Advance(int64(cycles/rate + 0.5))
			return
		}
		span := float64(c.pendAtNs - c.clk.Now())
		if cycles <= span*rate {
			c.clk.Advance(int64(cycles/rate + 0.5))
			return
		}
		cycles -= span * rate
		c.clk.AdvanceTo(c.pendAtNs)
	}
}

func (c *Core) quantize(t int64) int64 {
	q := c.cfg.TimerResolutionNs
	return t - t%q
}
