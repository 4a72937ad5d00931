package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// fingerprint is the environment a result was measured in, so a disk or
// toolchain change can be told apart from a code change.
type fingerprint struct {
	GoVersion   string  `json:"go_version"`
	Nproc       int     `json:"nproc"`
	SetupProcs  int     `json:"gomaxprocs_setup"`
	TimedProcs  int     `json:"gomaxprocs_timed"`
	FSType      string  `json:"fs_type"`
	FsyncMsP50  float64 `json:"host_fsync_ms_p50"`
	FsyncProbes int     `json:"host_fsync_probes"`
}

// fsTypes names the statfs magic numbers of common Linux filesystems.
var fsTypes = map[int64]string{
	0xEF53:     "ext4",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x01021994: "tmpfs",
	0x794C7630: "overlayfs",
	0x2FC12FC1: "zfs",
	0x6969:     "nfs",
	0x65735546: "fuse",
}

func takeFingerprint(dir string) (fingerprint, error) {
	fp := fingerprint{
		GoVersion:  runtime.Version(),
		Nproc:      runtime.NumCPU(),
		SetupProcs: setupProcs,
		TimedProcs: timedProcs,
		FSType:     "unknown",
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err == nil {
		if name, ok := fsTypes[int64(st.Type)]; ok {
			fp.FSType = name
		} else {
			fp.FSType = fmt.Sprintf("0x%x", st.Type)
		}
	}
	const probes = 40
	p50, err := fsyncProbe(dir, probes)
	if err != nil {
		return fp, err
	}
	fp.FsyncMsP50, fp.FsyncProbes = p50, probes
	return fp, nil
}

// fsyncProbe times n raw 4 KiB write+fsync pairs on a file in dir and
// returns the median in milliseconds: the disk's own durability cost,
// with no WAL code involved.
func fsyncProbe(dir string, n int) (float64, error) {
	path := filepath.Join(dir, "fsync-probe")
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer os.Remove(path)
	defer f.Close()
	buf := make([]byte, 4096)
	var s samples
	for i := 0; i < n; i++ {
		t := time.Now()
		if _, err := f.Write(buf); err != nil {
			return 0, err
		}
		if err := f.Sync(); err != nil {
			return 0, err
		}
		s.add(time.Since(t))
	}
	return s.p50(), nil
}

// CPU clocks of clock_gettime(2). Unlike getrusage, whose user/system
// split is rescaled from tick samples and can lag the true total over a
// few milliseconds, they read the scheduler's exact runtime.
const (
	clockProcessCPU = 2 // CLOCK_PROCESS_CPUTIME_ID: every thread of the process
	clockThreadCPU  = 3 // CLOCK_THREAD_CPUTIME_ID: the calling thread
)

func clockCPU(clock uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clock, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration { return clockCPU(clockProcessCPU) }

// procMeter measures process CPU utilisation and GC cycles over a phase.
type procMeter struct {
	wall time.Time
	cpu  time.Duration
	gc   uint32
}

func startProcMeter() procMeter {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return procMeter{wall: time.Now(), cpu: cpuTime(), gc: m.NumGC}
}

// stop writes proc.cpu_util (share of GOMAXPROCS cores busy) and
// proc.gc_cycles into out.
func (p procMeter) stop(out map[string]float64) {
	wall := time.Since(p.wall)
	cpu := cpuTime() - p.cpu
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	out["proc.cpu_util"] = ratio(float64(cpu), float64(wall)*float64(runtime.GOMAXPROCS(0)))
	out["proc.gc_cycles"] = float64(m.NumGC - p.gc)
}

// liveHeapMB is the live heap after a full collection, in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n, err
}

// copyDir copies the regular files of a flat directory and makes the copy
// durable (files and directory fsynced), so a market reopened on it pays
// for its own writes only.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			return fmt.Errorf("copyDir: %s is not a regular file", e.Name())
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	d, err := os.Open(dst)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	if err := out.Sync(); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
