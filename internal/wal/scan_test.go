package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestMappedAndBufferedWalksAgree runs scan's two walks over the same
// files: the walk over a read-only mapping and the buffered fallback,
// which on a platform that maps runs nowhere else. The files are every
// segment the damage tests build, the seeds of FuzzWALRecord and
// FuzzWALSegment, and their checked-in corpora. Both walks, and scan
// itself, must yield the same (offset, payload) sequence and the same
// records, valid and dropped counts.
func TestMappedAndBufferedWalksAgree(t *testing.T) {
	files := damagedSegments(t)
	for i, data := range walRecordSeeds() {
		files[fmt.Sprintf("FuzzWALRecord/seed#%d", i)] = data
	}
	for i, s := range walSegmentSeeds() {
		for j, data := range [][]byte{s.seg0, s.seg1, s.seg2} {
			files[fmt.Sprintf("FuzzWALSegment/seed#%d/seg%d", i, j)] = data
		}
	}
	for _, target := range []string{"FuzzWALRecord", "FuzzWALSegment"} {
		for name, args := range corpusFiles(t, filepath.Join("testdata", "fuzz", target)) {
			for j, data := range args {
				files[fmt.Sprintf("%s/%s/arg%d", target, name, j)] = data
			}
		}
	}
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t.Run(name, func(t *testing.T) { compareWalks(t, files[name]) })
	}
}

// walk is what one scan walk reports.
type walk struct {
	offs     []int64
	payloads [][]byte
	st       scanStats
}

func (w *walk) collect(off int64, p []byte) error {
	w.offs = append(w.offs, off)
	w.payloads = append(w.payloads, append([]byte(nil), p...))
	return nil
}

// compareWalks writes data to a segment file and requires the mapped
// walk, the buffered walk and scan to report the same walk of it.
func compareWalks(t *testing.T, data []byte) {
	path := filepath.Join(t.TempDir(), "seg.wal")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	size := int64(len(data))

	var buffered, mapped, dispatched walk
	if buffered.st, err = scanBuffered(f, size, buffered.collect); err != nil {
		t.Fatal(err)
	}
	if m, ok := mapFile(f, size); ok {
		mapped.st, err = scanMapped(m, mapped.collect)
		if uerr := unmapFile(m); uerr != nil {
			t.Fatal(uerr)
		}
	} else {
		if size > 0 && runtime.GOOS == "linux" {
			t.Fatalf("no mapping of a %d-byte file", size)
		}
		mapped.st, err = scanMapped(data, mapped.collect)
	}
	if err != nil {
		t.Fatal(err)
	}
	if dispatched.st, err = scan(f, dispatched.collect); err != nil {
		t.Fatal(err)
	}

	for _, w := range []struct {
		name string
		got  walk
	}{{"mapped", mapped}, {"scan", dispatched}} {
		if w.got.st != buffered.st {
			t.Fatalf("%s walk stats %+v, buffered %+v", w.name, w.got.st, buffered.st)
		}
		if len(w.got.offs) != len(buffered.offs) {
			t.Fatalf("%s walk yields %d frames, buffered %d", w.name, len(w.got.offs), len(buffered.offs))
		}
		for i := range buffered.offs {
			if w.got.offs[i] != buffered.offs[i] || !bytes.Equal(w.got.payloads[i], buffered.payloads[i]) {
				t.Fatalf("%s walk frame %d at %d is %q, buffered at %d is %q",
					w.name, i, w.got.offs[i], w.got.payloads[i], buffered.offs[i], buffered.payloads[i])
			}
		}
	}
	if buffered.st.valid+buffered.st.dropped != size || len(buffered.offs) != buffered.st.records {
		t.Fatalf("buffered walk of %d bytes: %+v with %d frames", size, buffered.st, len(buffered.offs))
	}
}

// damagedSegments builds the segment files of the damage tests, named
// after them: every cut of TestTornTailTruncated, both flips of
// TestCRCCorruptTailTruncated, TestMidLogCorruptionDropsSuffix,
// TestAbsurdLengthPrefixRejected, TestDuplicateFrameReplaysTwice, the
// corrupted middle segment of TestDirLogTornTailMidDirectory, the torn
// and empty checkpoint segments of TestDirLogTornCheckpointFallsBack,
// and the clean files they start from.
func damagedSegments(t *testing.T) map[string][]byte {
	files := map[string][]byte{"empty": {}}
	clean := func(n int) []byte {
		return appendRecords(t, filepath.Join(t.TempDir(), "log.wal"), n)
	}

	five := clean(5)
	files["clean"] = five
	frames := splitFrames(t, five)
	for cut := 1; cut < len(frames[4]); cut++ {
		files[fmt.Sprintf("torn-tail/cut%d", cut)] = five[:len(five)-cut]
	}

	three := clean(3)
	last := splitFrames(t, three)[2]
	for _, flip := range []int{frameHeaderLen, len(last) - 2} {
		corrupt := append([]byte(nil), three...)
		corrupt[len(three)-len(last)+flip] ^= 0x40
		files[fmt.Sprintf("crc-corrupt-tail/flip%d", flip)] = corrupt
	}

	six := clean(6)
	frames = splitFrames(t, six)
	mid := append([]byte(nil), six...)
	mid[len(frames[0])+len(frames[1])+4] ^= 0xFF
	files["mid-log-corruption"] = mid

	two := clean(2)
	var header [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(header[:4], MaxRecordLen+1)
	absurd := append(append([]byte(nil), two...), header[:]...)
	files["absurd-length"] = append(absurd, "garbage"...)
	files["duplicate-frame"] = append(append([]byte(nil), two...), splitFrames(t, two)[1]...)

	var seg []byte
	for i := 2; i < 4; i++ {
		seg = EncodeFrame(seg, payloadN(i))
	}
	seg[len(seg)-2] ^= 0xff
	files["torn-mid-directory"] = seg
	files["torn-checkpoint"] = []byte{200, 0, 0, 0, 1, 2, 3, 4, 9}
	return files
}

// corpusFiles reads a fuzz target's checked-in corpus: each file's
// []byte arguments, keyed by file name.
func corpusFiles(t *testing.T, dir string) map[string][][]byte {
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][][]byte, len(entries))
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		var args [][]byte
		for _, line := range strings.Split(string(raw), "\n") {
			lit, ok := strings.CutPrefix(line, "[]byte(")
			if !ok {
				continue
			}
			s, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
			if err != nil {
				t.Fatalf("%s: %v", e.Name(), err)
			}
			args = append(args, []byte(s))
		}
		if len(args) == 0 {
			t.Fatalf("%s holds no []byte argument", e.Name())
		}
		files[e.Name()] = args
	}
	return files
}
