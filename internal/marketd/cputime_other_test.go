//go:build !linux

package marketd

import "time"

// haveProcessCPU reports that no process CPU clock is read off Linux,
// so the benchmarks report no cpu-ms/op there.
const haveProcessCPU = false

func processCPU() time.Duration { return 0 }
