package gpu

import (
	"fmt"
	"math"

	"golatest/internal/sim/clock"
)

// Injection is the ground-truth record of one frequency-change request.
// Real hardware never exposes CompleteNs; the simulator records it so the
// methodology's measured switching latency can be validated against the
// injected one (CompleteNs − RequestNs).
type Injection struct {
	RequestNs  int64 // host time the request was issued
	ApplyNs    int64 // host time the command reached the device
	CompleteNs int64 // host time the transition finished
	InitMHz    float64
	TargetMHz  float64
}

// SwitchingLatencyNs returns the ground-truth switching latency of this
// injection: command issue to transition completion.
func (in Injection) SwitchingLatencyNs() int64 { return in.CompleteNs - in.RequestNs }

// Device is one simulated accelerator attached to a host virtual clock.
//
// A Device is not safe for concurrent use, matching the single-threaded
// host loop that drives the benchmark; analysis of returned samples may
// be parallelised freely since samples are plain values.
type Device struct {
	cfg Config
	clk *clock.Clock
	rng *clock.Rand

	tl        *timeline
	setFreq   float64
	injected  []Injection
	kernelSeq uint64

	smSpeed []float64

	thermal  thermalState
	energy   energyMeter
	reasons  ThrottleReason
	clampMHz float64 // 0 = unclamped

	busyEndNs int64
	everBusy  bool
	queue     []*Kernel

	// kernelScratch and smScratch are the reusable child streams of the
	// materialisation path (one kernel, one SM at a time), re-seeded in
	// place so per-kernel RNG derivation never allocates.
	kernelScratch *clock.Rand
	smScratch     *clock.Rand
}

// New constructs a device from cfg (normalised internally) bound to the
// given host clock.
func New(cfg Config, clk *clock.Clock) (*Device, error) {
	cfg, err := cfg.Normalize()
	if err != nil {
		return nil, err
	}
	d := &Device{
		cfg:           cfg,
		clk:           clk,
		rng:           clock.NewRand(cfg.Seed, 0x6c6174657374), // "latest"
		kernelScratch: clock.NewRand(0, 0),
		smScratch:     clock.NewRand(0, 0),
	}
	d.tl = newTimeline(clk.Now(), cfg.DefaultFreqMHz)
	d.setFreq = cfg.DefaultFreqMHz
	d.smSpeed = make([]float64, cfg.SMCount)
	speedRng := d.rng.Child(1)
	for i := range d.smSpeed {
		d.smSpeed[i] = speedRng.Normal(1, cfg.SMSpeedSigma)
	}
	d.thermal = thermalState{tempC: cfg.AmbientC, lastUpdateNs: clk.Now()}
	d.energy = energyMeter{lastUpdateNs: clk.Now()}
	return d, nil
}

// Config returns a copy of the device's normalised configuration.
func (d *Device) Config() Config { return d.cfg }

// Clock returns the host clock the device is bound to.
func (d *Device) Clock() *clock.Clock { return d.clk }

// SetFrequency requests an SM applications-clock change to targetMHz at
// the current host time. The request incurs a bus delay before the device
// receives it and a transition period before the new clock is effective,
// both sampled from the architecture's latency model. The ground-truth
// Injection record is returned.
//
// The caller (normally the nvml layer) is responsible for modelling the
// host-side blocking cost of the driver call.
func (d *Device) SetFrequency(targetMHz float64) (Injection, error) {
	if !d.cfg.SupportsFreq(targetMHz) {
		return Injection{}, fmt.Errorf("gpu: %s: unsupported SM clock %v MHz", d.cfg.Name, targetMHz)
	}
	now := d.clk.Now()
	initMHz := d.tl.freqAt(now)
	tr := d.cfg.Latency.Sample(initMHz, targetMHz, d.rng)
	if tr.BusDelayNs < 0 || tr.DurationNs < 0 {
		return Injection{}, fmt.Errorf("gpu: %s: latency model produced negative transition %+v", d.cfg.Name, tr)
	}
	apply := now + tr.BusDelayNs
	complete := apply + tr.DurationNs
	if initMHz == targetMHz {
		// Setting the already-effective clock completes on receipt.
		complete = apply
	}
	d.tl.addRamp(apply, complete, targetMHz, d.cfg.RampSteps)
	d.setFreq = targetMHz

	// Dropping below the power cap releases the power throttle latch.
	if d.cfg.PowerCapMHz > 0 && targetMHz <= d.cfg.PowerCapMHz && d.reasons.Has(ThrottlePower) {
		d.reasons &^= ThrottlePower
		d.thermal.busyAboveCapNs = 0
		d.refreshClamp()
	}

	inj := Injection{
		RequestNs:  now,
		ApplyNs:    apply,
		CompleteNs: complete,
		InitMHz:    initMHz,
		TargetMHz:  targetMHz,
	}
	d.injected = append(d.injected, inj)
	return inj, nil
}

// SetFreqMHz reports the last programmed applications clock.
func (d *Device) SetFreqMHz() float64 { return d.setFreq }

// CurrentFreqMHz reports the clock effective right now, including any
// throttle clamp.
func (d *Device) CurrentFreqMHz() float64 {
	f := d.tl.freqAt(d.clk.Now())
	if d.clampMHz > 0 && f > d.clampMHz {
		return d.clampMHz
	}
	return f
}

// Injections returns the ground-truth records of all frequency-change
// requests issued so far, in request order. The returned slice is shared;
// callers must not modify it.
func (d *Device) Injections() []Injection { return d.injected }

// LastInjection returns the most recent injection record.
// ok is false when no request has been issued yet.
func (d *Device) LastInjection() (inj Injection, ok bool) {
	if len(d.injected) == 0 {
		return Injection{}, false
	}
	return d.injected[len(d.injected)-1], true
}

// DeviceTimeAt converts a host timestamp to the device's global-timer
// reading at that instant: offset plus drift, quantised to the timer
// refresh period.
func (d *Device) DeviceTimeAt(hostNs int64) int64 {
	t := hostNs + d.cfg.ClockOffsetNs
	if d.cfg.ClockDriftPPM != 0 {
		t += int64(float64(hostNs) * d.cfg.ClockDriftPPM / 1e6)
	}
	q := d.cfg.TimerQuantumNs
	return t - mod(t, q)
}

// HostTimeFor inverts DeviceTimeAt up to quantisation: it returns the
// host timestamp whose device-clock reading is closest to devNs. Used by
// analysis code to map device timestamps back onto the host timeline.
func (d *Device) HostTimeFor(devNs int64) int64 {
	t := devNs - d.cfg.ClockOffsetNs
	if d.cfg.ClockDriftPPM != 0 {
		t -= int64(float64(t) * d.cfg.ClockDriftPPM / 1e6)
	}
	return t
}

// Temperature reports the die temperature in °C at the current host time,
// applying idle cooling since the device last finished work, and releases
// the thermal throttle once the temperature has fallen through the
// hysteresis band.
func (d *Device) Temperature() float64 {
	now := d.clk.Now()
	if now > d.thermal.lastUpdateNs {
		// Between materialised kernels the device is idle.
		d.thermal.evolve(&d.cfg, now, d.tl.freqAt(now), false)
	}
	if d.reasons.Has(ThrottleThermal) &&
		d.thermal.tempC < d.cfg.ThermalLimitC-d.cfg.ThermalHysteresisC {
		d.reasons &^= ThrottleThermal
		d.refreshClamp()
	}
	return d.thermal.tempC
}

// ThrottleReasons reports the active throttle reasons at the current host
// time (refreshing thermal recovery first, like an NVML register read).
func (d *Device) ThrottleReasons() ThrottleReason {
	d.Temperature()
	return d.reasons
}

// refreshClamp recomputes the clock clamp from the active reasons.
func (d *Device) refreshClamp() {
	d.clampMHz = 0
	if d.reasons.Has(ThrottleThermal) {
		d.clampMHz = d.cfg.ThrottleClampMHz
	}
	if d.reasons.Has(ThrottlePower) && d.cfg.PowerCapMHz > 0 {
		if d.clampMHz == 0 || d.cfg.PowerCapMHz < d.clampMHz {
			d.clampMHz = d.cfg.PowerCapMHz
		}
	}
}

// Launch enqueues a kernel for execution. The host clock advances by the
// launch overhead; the kernel itself executes asynchronously in virtual
// time and its timings materialise on Synchronize.
func (d *Device) Launch(spec KernelSpec) (*Kernel, error) {
	return d.LaunchWithSink(spec, nil)
}

// LaunchWithSink enqueues a kernel whose iteration timings stream into
// sink during materialisation instead of being stored on the kernel: the
// per-block sample slices are never allocated and Samples becomes
// unavailable. A nil sink is equivalent to Launch.
func (d *Device) LaunchWithSink(spec KernelSpec, sink SampleSink) (*Kernel, error) {
	if err := spec.validate(&d.cfg); err != nil {
		return nil, err
	}
	d.clk.Advance(d.cfg.LaunchOverheadNs)
	k := &Kernel{spec: spec, enqueuedNs: d.clk.Now(), dev: d, sink: sink}
	d.queue = append(d.queue, k)
	return k, nil
}

// Synchronize blocks the host until every queued kernel has finished:
// kernels are materialised FIFO against the frequency timeline, thermal
// state advances, throttles latch, and the host clock lands on the final
// completion time.
func (d *Device) Synchronize() {
	for _, k := range d.queue {
		d.materialize(k)
	}
	d.queue = d.queue[:0]
	if d.busyEndNs > d.clk.Now() {
		d.clk.AdvanceTo(d.busyEndNs)
	}
}

// Pending reports the number of launched, not-yet-synchronised kernels.
func (d *Device) Pending() int { return len(d.queue) }

// materialize computes the per-SM iteration timings of kernel k.
func (d *Device) materialize(k *Kernel) {
	start := k.enqueuedNs
	if d.busyEndNs > start {
		start = d.busyEndNs
	}

	// Wake-up: a kernel arriving after an idle gap runs at idle clocks
	// for the wake delay before the programmed frequency takes hold.
	wakeEnd := int64(0)
	idleGap := start - d.busyEndNs
	if !d.everBusy || idleGap > d.cfg.IdleTimeoutNs {
		wakeEnd = start + d.cfg.WakeDelayNs
	}

	// Thermal: idle cooling from the last update until the kernel start.
	if start > d.thermal.lastUpdateNs {
		d.thermal.evolve(&d.cfg, start, d.tl.freqAt(start), false)
	}

	d.kernelSeq++
	kernelRng := d.rng.ChildInto(d.kernelScratch, 0x1000+d.kernelSeq)

	blocks := k.spec.Blocks
	if blocks == 0 || blocks > d.cfg.SMCount {
		blocks = d.cfg.SMCount
	}
	if k.sink == nil {
		k.samples = make([][]IterSample, blocks)
	}
	k.startNs = start

	var maxEnd int64
	for sm := 0; sm < blocks; sm++ {
		smRng := kernelRng.ChildInto(d.smScratch, uint64(sm))
		end := d.runSM(k, sm, start, wakeEnd, smRng)
		if end > maxEnd {
			maxEnd = end
		}
	}
	k.endNs = maxEnd
	k.done = true

	// Thermal: integrate across the kernel's busy window piecewise, at the
	// effective clock of each timeline segment (wake window and throttle
	// clamp included), so long transitions and wake periods heat honestly.
	tcur := d.tl.cursor()
	for t := start; t < maxEnd; {
		f, segEnd := tcur.freqAt(t)
		if t < wakeEnd {
			f = d.cfg.IdleFreqMHz
			if wakeEnd < segEnd {
				segEnd = wakeEnd
			}
		} else if d.clampMHz > 0 && f > d.clampMHz {
			f = d.clampMHz
		}
		if segEnd > maxEnd {
			segEnd = maxEnd
		}
		d.thermal.evolve(&d.cfg, segEnd, f, true)
		t = segEnd
	}
	if d.thermal.tempC > d.cfg.ThermalLimitC && !d.reasons.Has(ThrottleThermal) {
		d.reasons |= ThrottleThermal
		d.refreshClamp()
	}
	if d.cfg.PowerCapMHz > 0 && d.thermal.busyAboveCapNs > d.cfg.PowerCapDelayNs &&
		!d.reasons.Has(ThrottlePower) {
		d.reasons |= ThrottlePower
		d.refreshClamp()
	}

	d.meterBusy(start, maxEnd, wakeEnd)

	d.busyEndNs = maxEnd
	d.everBusy = true
}

// runSM executes the iteration loop of one SM-resident block, recording
// quantised device timestamps for every delivered iteration, and returns
// the host time at which the block finished. Timings either accumulate
// into the kernel's sample matrix (every iteration) or stream into its
// sink (from the first iteration the sink asks for).
//
// Every iteration draws its jitter and advances host time whether or not
// it is delivered, so the block's timing and the random stream never
// depend on what the consumer reads. Each delivered boundary is
// converted to device time once: the end of iteration i is the start of
// i+1.
//
// Past the wake window the loop caches the current timeline segment's
// end and cycles-per-ns rate, and an iteration that finishes inside it
// costs one division — the same float operations, in the same order, as
// integrate's first step, so the durations are bit-identical. An
// iteration that starts inside the wake window or crosses a segment
// boundary takes the full integrate walk.
func (d *Device) runSM(k *Kernel, sm int, start, wakeEnd int64, r *clock.Rand) int64 {
	iters := k.spec.Iters
	var samples []IterSample
	from := 0
	if k.sink == nil {
		samples = make([]IterSample, iters)
	} else {
		from = k.sink.BlockStart(sm, iters)
	}
	cur := d.tl.cursor()
	speed := d.smSpeed[sm]
	t := start
	var devT int64 // device time of t, from the first delivered iteration on
	// segEnd and rate describe the cached segment, valid while
	// wakeEnd <= t < segEnd; the timeline and clamp are fixed while a
	// kernel materialises.
	segEnd, rate := int64(math.MinInt64), 0.0
	for i := 0; i < iters; i++ {
		jitter := r.Normal(1, d.cfg.IterJitterSigma)
		if jitter < 0.5 {
			jitter = 0.5 // guard the pathological tail; keeps time positive
		}
		cycles := k.spec.CyclesPerIter * jitter
		if t >= wakeEnd && t >= segEnd {
			var f float64
			f, segEnd = cur.freqAt(t)
			if d.clampMHz > 0 && f > d.clampMHz {
				f = d.clampMHz
			}
			rate = f * speed / 1000
		}
		var dur int64
		if t >= wakeEnd && (segEnd == math.MaxInt64 || cycles <= float64(segEnd-t)*rate) {
			dur = roundNs(cycles / rate)
		} else {
			dur = d.integrate(t, cycles, speed, wakeEnd, &cur)
		}
		if i >= from {
			if i == from {
				devT = d.DeviceTimeAt(t)
			}
			s := IterSample{StartNs: devT, EndNs: d.DeviceTimeAt(t + dur)}
			devT = s.EndNs
			if k.sink == nil {
				samples[i] = s
			} else {
				k.sink.Sample(sm, i, s)
			}
		}
		t += dur
	}
	if k.sink == nil {
		k.samples[sm] = samples
	} else {
		k.sink.BlockEnd(sm)
	}
	return t
}

// integrate returns the host-time nanoseconds needed to execute the given
// cycle count starting at host time t, walking the frequency timeline and
// honouring the wake window and throttle clamp. The cursor amortises the
// segment lookups across the caller's monotone time walk.
func (d *Device) integrate(t int64, cycles, speed float64, wakeEnd int64, cur *cursor) int64 {
	var elapsed float64
	remaining := cycles
	for remaining > 0 {
		f, segEnd := cur.freqAt(t)
		if t < wakeEnd {
			f = d.cfg.IdleFreqMHz
			if wakeEnd < segEnd {
				segEnd = wakeEnd
			}
		} else if d.clampMHz > 0 && f > d.clampMHz {
			f = d.clampMHz
		}
		// rate in cycles per nanosecond at this effective clock.
		rate := f * speed / 1000
		span := float64(segEnd - t)
		if segEnd == math.MaxInt64 || remaining <= span*rate {
			need := remaining / rate
			elapsed += need
			remaining = 0
			break
		}
		elapsed += span
		remaining -= span * rate
		t = segEnd
	}
	return roundNs(elapsed)
}

// roundNs rounds an iteration's elapsed host time to whole nanoseconds,
// never below one.
func roundNs(elapsed float64) int64 {
	if elapsed < 1 {
		elapsed = 1
	}
	return int64(elapsed + 0.5)
}

func mod(a, b int64) int64 {
	m := a % b
	if m < 0 {
		m += b
	}
	return m
}
