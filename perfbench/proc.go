package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// invocationTimeout bounds one CLI invocation; a cold quick run takes
// 20 to 30 s on two cores.
const invocationTimeout = 150 * time.Second

// clockTick is the unit of the CPU times in /proc (USER_HZ, 100 on Linux).
const clockTick = 10 * time.Millisecond

// invocation is one finished CLI process.
type invocation struct {
	wall   time.Duration
	stolen time.Duration // CPU time stolen from the machine during wall
	cpu    time.Duration // user + system
	rssMB  float64       // maximum resident set size
	cache  cacheLine     // the store outcome the CLI printed
}

// elapsed is the invocation's wall-clock less the time stolen during it.
func (inv invocation) elapsed() time.Duration { return inv.wall - inv.stolen }

// timeUnstolen runs fn and returns its wall-clock less the CPU time
// stolen from the machine meanwhile.
func timeUnstolen(fn func() error) (time.Duration, error) {
	steal, start := stolenCPU(), time.Now()
	err := fn()
	return time.Since(start) - (stolenCPU() - steal), err
}

// experiments runs the experiments CLI with the benchmark's seed and the
// given arguments, which must name a store. A non-zero exit, a timeout or
// a missing cache line is an error.
func (b *bench) experiments(args ...string) (invocation, error) {
	ctx, cancel := context.WithTimeout(context.Background(), invocationTimeout)
	defer cancel()
	args = append([]string{"-seed", strconv.FormatUint(b.seed, 10)}, args...)
	cmd := exec.CommandContext(ctx, filepath.Join(b.bin, "experiments"), args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	steal, start := stolenCPU(), time.Now()
	err := cmd.Run()
	inv := invocation{wall: time.Since(start), stolen: stolenCPU() - steal}
	if ps := cmd.ProcessState; ps != nil {
		inv.cpu = ps.UserTime() + ps.SystemTime()
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			inv.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
		}
	}
	if ctx.Err() != nil {
		return inv, fmt.Errorf("experiments %s: timed out after %v", strings.Join(args, " "), invocationTimeout)
	}
	if err != nil {
		return inv, fmt.Errorf("experiments %s: %v: %s", strings.Join(args, " "), err, lastLine(stderr.String()))
	}
	inv.cache, err = parseCache(stdout.String())
	return inv, err
}

func lastLine(s string) string {
	s = strings.TrimSpace(s)
	if i := strings.LastIndexByte(s, '\n'); i >= 0 {
		return s[i+1:]
	}
	return s
}

// daemon is a running stored process serving a store directory on a
// loopback port.
type daemon struct {
	cmd     *exec.Cmd
	url     string
	drained chan struct{} // closed once the log pipe hits EOF
}

// startDaemon starts stored on dir and waits for the URL it logs.
func (b *bench) startDaemon(dir string) (*daemon, error) {
	cmd := exec.Command(filepath.Join(b.bin, "stored"), "-dir", dir, "-addr", "127.0.0.1:0")
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stderr = os.Stderr
	logs, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start stored: %w", err)
	}
	d := &daemon{cmd: cmd, drained: make(chan struct{})}
	urls := make(chan string, 1)
	go func() {
		defer close(d.drained)
		sc := bufio.NewScanner(logs)
		for sc.Scan() {
			if !strings.Contains(sc.Text(), "msg=serving") {
				continue
			}
			for _, f := range strings.Fields(sc.Text()) {
				if u, ok := strings.CutPrefix(f, "url="); ok {
					select {
					case urls <- u:
					default:
					}
				}
			}
		}
		// Keep reading so the daemon never blocks on a full log pipe.
		_, _ = io.Copy(io.Discard, logs)
	}()
	select {
	case d.url = <-urls:
		return d, nil
	case <-d.drained:
	case <-time.After(10 * time.Second):
	}
	_ = d.stop()
	return nil, errors.New("stored did not report its URL")
}

// stop asks the daemon to drain and exit, kills it if it has not within
// ten seconds, and waits for it.
func (d *daemon) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.drained:
		return d.cmd.Wait()
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.drained
		_ = d.cmd.Wait()
		return errors.New("stored did not exit within 10s of SIGTERM")
	}
}

// cpu returns the daemon's user + system CPU time so far.
func (d *daemon) cpu() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks.
	s := string(data)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc stat line for stored")
	}
	var ticks int64
	for _, f := range fields[11:13] {
		n, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, err
		}
		ticks += n
	}
	return time.Duration(ticks) * clockTick, nil
}

// peakRSSMB returns the daemon's high-water resident set size.
func (d *daemon) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM for stored")
}

// stolenCPU returns the CPU time the hypervisor has taken from this
// machine's virtual CPUs since boot (0 where /proc/stat does not say).
func stolenCPU() time.Duration {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line) // "cpu" user nice system idle iowait irq softirq steal ...
	if len(fields) < 9 {
		return 0
	}
	ticks, err := strconv.ParseInt(fields[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * clockTick
}
