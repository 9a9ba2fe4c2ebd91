package main

import (
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The host is a shared machine, and its speed follows the load of its
// neighbours. On a 2-vCPU KVM guest the same fig3-evidence code measured
// from 74 to 161 runs/s in 40-second runs within one hour, with the
// process busy on both CPUs the whole time (no steal, no page faults, no
// GC change): the CPUs simply ran the simulator slower. A wall-clock figure then measures the
// neighbours more than the program.
//
// So a probe measures the host's speed through the whole run: every
// probePeriod it runs a fixed piece of branchy work, a small
// register-machine interpreter of the same kind as the simulator's
// instruction loop and a sort of fixed data, and reads the CPU time its
// own thread spent on it. CPU time leaves out the
// time the probe waited for a CPU, so the probe sees how fast the host
// executes, not how busy the benchmark keeps it. The gated timings are
// then scaled to a reference host on which the probe takes probeNominal:
// a wall interval counts as wall × (probeNominal / probe)^probeExponent,
// with probe the median probe time in a window around the interval. The
// raw wall figures are printed and archived beside them.
//
// The simulator slows more than the probe when the host gets busy, so the
// probe's ratio is raised to probeExponent. A probe of memory latency did
// not follow the host's swing at all. The probe is part of the benchmark,
// not of the program, so a change to the program cannot change what it
// measures. It costs about 3% of one CPU.
const (
	probePeriod  = 200 * time.Millisecond
	probeWindow  = 2 * time.Second // on each side of a scaled interval
	probeMinimum = 5               // samples a scale factor needs
	// probeNominal is about the probe's thread CPU time on the reference
	// host: a quiet 2-vCPU KVM guest on a Xeon with AVX-512 (Sapphire
	// Rapids class), Go 1.24.
	probeNominal = 3.0e-3
	// probeExponent is fitted on two sets of ten 50-second runs of each
	// workload, one on a busy host and one on a quiet one: between them
	// fig3-evidence sped up 1.9 times and the probe 1.55 times. With 1.4
	// the sets' medians agree within 5% on both workloads; with 1 they
	// differ by up to 25% (recomputed from the runs' archived wall times
	// and probe samples).
	probeExponent = 1.4
)

type speedProbe struct {
	epoch time.Time
	stop  chan struct{}
	done  chan struct{}
	once  sync.Once

	mu  sync.Mutex
	at  []time.Duration // midpoint of each probe, since epoch
	cpu []float64       // thread CPU seconds of each probe
}

func startSpeedProbe() *speedProbe {
	p := &speedProbe{epoch: time.Now(), stop: make(chan struct{}), done: make(chan struct{})}
	go p.loop()
	return p
}

func (p *speedProbe) loop() {
	defer close(p.done)
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	tick := time.NewTicker(probePeriod)
	defer tick.Stop()
	for {
		w0 := time.Since(p.epoch)
		c0, err0 := threadCPU()
		probeKernel()
		c1, err1 := threadCPU()
		w1 := time.Since(p.epoch)
		if err0 == nil && err1 == nil && c1 > c0 {
			p.mu.Lock()
			p.at = append(p.at, (w0+w1)/2)
			p.cpu = append(p.cpu, (c1 - c0).Seconds())
			p.mu.Unlock()
		}
		select {
		case <-p.stop:
			return
		case <-tick.C:
		}
	}
}

// halt stops the probe and waits for it to end. It may be called more
// than once.
func (p *speedProbe) halt() {
	p.once.Do(func() { close(p.stop) })
	<-p.done
}

// factor is probeNominal over the median probe time within probeWindow
// of [from, to], raised to probeExponent; with fewer than probeMinimum
// probes there, the median of the probeMinimum probes nearest to the
// interval is used. It is 0 when the probe has no samples at all.
func (p *speedProbe) factor(from, to time.Time) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.cpu) == 0 {
		return 0
	}
	lo, hi := from.Sub(p.epoch)-probeWindow, to.Sub(p.epoch)+probeWindow
	i := sort.Search(len(p.at), func(i int) bool { return p.at[i] >= lo })
	j := sort.Search(len(p.at), func(i int) bool { return p.at[i] > hi })
	for j-i < probeMinimum && (i > 0 || j < len(p.at)) {
		mid := (lo + hi) / 2
		if j == len(p.at) || (i > 0 && mid-p.at[i-1] <= p.at[j]-mid) {
			i--
		} else {
			j++
		}
	}
	return math.Pow(probeNominal/median(p.cpu[i:j]), probeExponent)
}

// scaled is the length of [from, to] in seconds of the reference host.
func (p *speedProbe) scaled(from, to time.Time) float64 {
	return to.Sub(from).Seconds() * p.factor(from, to)
}

// probeTimes returns every probe time in seconds.
func (p *speedProbe) probeTimes() []float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]float64(nil), p.cpu...)
}

// samples lists each probe as its midpoint since the epoch and its time,
// in seconds.
func (p *speedProbe) samples() [][2]float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([][2]float64, len(p.at))
	for i := range p.at {
		out[i] = [2]float64{p.at[i].Seconds(), p.cpu[i]}
	}
	return out
}

// threadCPU reads the calling thread's CPU clock.
func threadCPU() (time.Duration, error) {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, errno
	}
	return time.Duration(ts.Nano()), nil
}

// probeProgram is the interpreter's fixed program: 4096 one-byte
// instructions from a fixed generator.
var probeProgram = func() []byte {
	prog := make([]byte, 4096)
	x := uint64(12345)
	for i := range prog {
		x = x*6364136223846793005 + 1442695040888963407
		prog[i] = byte(x >> 59)
	}
	return prog
}()

// probeData is the sort's fixed input: 20000 integers from a fixed
// generator. probeBuf is the sort's buffer, so the probe allocates nothing.
var probeData, probeBuf = func() ([]int, []int) {
	data := make([]int, 20000)
	x := uint64(5)
	for i := range data {
		x = x*6364136223846793005 + 1442695040888963407
		data[i] = int(x >> 20)
	}
	return data, make([]int, len(data))
}()

// probeSink keeps the interpreter's result alive.
var probeSink uint64

// probeKernel interprets probeProgram a fixed number of times (decode,
// branch on the opcode, register and memory operands, a data-dependent
// branch) and sorts probeData.
func probeKernel() {
	copy(probeBuf, probeData)
	slices.Sort(probeBuf)
	var regs [16]uint64
	var mem [1024]uint64
	for rep := 0; rep < 64; rep++ {
		for _, op := range probeProgram {
			r := int(op & 15)
			switch op >> 2 {
			case 0:
				regs[r] += regs[(r+1)&15]
			case 1:
				regs[r] ^= regs[(r+3)&15] << 1
			case 2:
				mem[regs[r]&1023] = regs[(r+5)&15]
			case 3:
				regs[r] = mem[regs[(r+7)&15]&1023]
			case 4:
				if regs[r]&1 == 1 {
					regs[(r+2)&15]++
				}
			case 5:
				regs[r] = regs[r]*31 + 7
			case 6:
				regs[r] >>= 1
			default:
				regs[r] -= regs[(r+9)&15]
			}
		}
	}
	probeSink = regs[3]
}
