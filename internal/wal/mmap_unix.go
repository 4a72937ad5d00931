//go:build unix

package wal

import (
	"os"
	"syscall"
)

// mapFile maps the first size bytes of f read-only. ok is false, and
// scan falls back to a buffered read, when size is 0 or does not fit an
// int, or when the map fails.
func mapFile(f *os.File, size int64) (data []byte, ok bool) {
	if size <= 0 || int64(int(size)) != size {
		return nil, false
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, false
	}
	return data, true
}

// unmapFile releases a mapping mapFile made.
func unmapFile(data []byte) error { return syscall.Munmap(data) }
