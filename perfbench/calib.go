package main

import (
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark runs on is a share of a machine other tenants
// load too, and the speed of a core drifts with them: in one set of ten
// runs the CPU time of the same solves moved by a quarter between runs,
// and the set-up time with it. A fixed kernel that touches none of the
// program's code, timed next to the operations, measures that drift, and
// the end-to-end cost is reported in its units. calRefMs scales them back
// to milliseconds: cal_ms_per_op is what an operation would cost on a
// host where one kernel run takes calRefMs of CPU, about what it takes on
// a quiet 2 GHz Xeon share.
const calRefMs = 5.0

// The kernel runs once between operations, never twice in a row: a run
// straight after another finds its 8 MB table still in the shared L3, and
// how much of it survives there depends on other tenants. Runs spread
// between operations find it evicted alike.
const (
	calTable = 1 << 20 // float64s in the table: random reads over 8 MB
	calSort  = 1 << 14 // float64s sorted per run
	calReads = 1 << 17 // random table reads per run
	calKeys  = 1 << 13 // hash inserts and lookups per run
	calSlots = 1 << 14 // open-addressing slots for the keys
	calFmt   = 1 << 12 // floats formatted per run
)

// calibrator holds the kernel's buffers in memory mapped outside the Go
// heap, so the harness's own live heap, and with it how often the
// program's garbage is collected, is the same with or without it. A run
// allocates nothing.
type calibrator struct {
	mem    []byte
	table  []float64
	sorted []float64
	slots  []uint64
	text   []byte
	sink   float64
}

func newCalibrator() (*calibrator, error) {
	n := (calTable + calSort + calSlots) * 8
	mem, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	words := unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), n/8)
	floats := unsafe.Slice((*float64)(unsafe.Pointer(&mem[0])), n/8)
	c := &calibrator{
		mem:    mem,
		table:  floats[:calTable],
		sorted: floats[calTable : calTable+calSort],
		slots:  words[calTable+calSort:],
		text:   make([]byte, 0, 64),
	}
	x := uint64(0x9E3779B97F4A7C15)
	for i := range c.table {
		x = lcg(x)
		c.table[i] = float64(x>>11) / (1 << 53)
	}
	return c, nil
}

// close unmaps the kernel's buffers.
func (c *calibrator) close() { syscall.Munmap(c.mem) }

func lcg(x uint64) uint64 { return x*6364136223846793005 + 1442695040888963407 }

// run executes the kernel once and returns the CPU time it took, read on
// its own thread's clock, so goroutines of the market that run meanwhile
// are not charged to it. Every run does the same work, of the kinds the
// solver, the WAL codec and the HTTP edge do: a sort, random reads, hash
// inserts and lookups, and float formatting.
func (c *calibrator) run() time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t := clockCPU(clockThreadCPU)
	copy(c.sorted, c.table[:calSort])
	sort.Float64s(c.sorted)
	acc := c.sorted[calSort/2]
	x := uint64(1)
	for i := 0; i < calReads; i++ {
		x = lcg(x)
		acc += c.table[x>>44]
	}
	clear(c.slots)
	x0 := x
	for i := 0; i < calKeys; i++ {
		x = lcg(x)
		j := x >> 50
		for c.slots[j] != 0 {
			j = (j + 1) % calSlots
		}
		c.slots[j] = x
	}
	x = x0
	for i := 0; i < calKeys; i++ {
		x = lcg(x)
		j := x >> 50
		for c.slots[j] != x {
			j = (j + 1) % calSlots
		}
		acc += float64(j)
	}
	for i := 0; i < calFmt; i++ {
		c.text = strconv.AppendFloat(c.text[:0], c.table[i], 'g', -1, 64)
		acc += float64(len(c.text))
	}
	c.sink = acc
	return clockCPU(clockThreadCPU) - t
}

// calMs converts a CPU time into calibrated milliseconds, given the
// kernel's CPU time measured next to it.
func calMs(d, kernel time.Duration) float64 {
	return ratio(ms(d)*calRefMs, ms(kernel))
}
