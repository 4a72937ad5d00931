//go:build !unix

package wal

import "os"

// mapFile never maps on this platform: scan reads every segment through
// a buffer.
func mapFile(*os.File, int64) ([]byte, bool) { return nil, false }

func unmapFile([]byte) error { return nil }
