package aggd

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"zerosum/internal/export"
)

// rollupFuzzSeeds builds the seed corpus for FuzzRollupFrameDecode: healthy
// rollup frames, a mixed stream holding a refused v2 batch, and near-miss
// damage so the fuzzer starts past the magic and CRC checks.
func rollupFuzzSeeds(t testing.TB) map[string][]byte {
	full := &RollupMsg{
		LeafID:    "leaf-0:9101",
		LeafEpoch: 3,
		Seq:       12,
		Batches: []Batch{
			mkRollupBatch("n00", 0, 2, 5, 3),
			mkRollupBatch("n01", 1, 1, 0, 1),
		},
		Snapshots: []SnapshotMsg{{
			Origin:   Origin{Job: "jr", Node: "n00", Rank: 0},
			Snapshot: testSnapshot(0, "n00"),
			CommRow:  map[int]uint64{1: 2048},
		}},
	}
	rf, err := EncodeRollupFrame(full)
	if err != nil {
		t.Fatalf("seed rollup: %v", err)
	}
	empty, err := EncodeRollupFrame(&RollupMsg{LeafID: "leaf-1:9101", LeafEpoch: 1})
	if err != nil {
		t.Fatalf("seed empty rollup: %v", err)
	}

	// A mixed stream the resyncing scanner must survive: a refused v2
	// batch, rollup, torn-write garbage, a current batch, then a
	// bit-flipped rollup.
	b2 := Batch{Origin: Origin{Job: "jr", Node: "n02", Rank: 2}, Epoch: 1, Seq: 0,
		Events: []export.Event{
			{Kind: export.EventLWP, TimeSec: 1, LWP: &export.LWPSample{TID: 9, Kind: "Main", State: 'R', UserPct: 70}},
		}}
	v2 := v2BatchFrame(t, &b2)
	b4 := mkRollupBatch("n03", 3, 1, 0, 2)
	v4, err := EncodeBatchFrame(&b4)
	if err != nil {
		t.Fatalf("seed v4 batch: %v", err)
	}
	flipped := append([]byte(nil), rf...)
	flipped[len(flipped)-5] ^= 0x10
	var mixed []byte
	mixed = append(mixed, v2...)
	mixed = append(mixed, rf...)
	mixed = append(mixed, []byte("torn-write-residue")...)
	mixed = append(mixed, v4...)
	mixed = append(mixed, flipped...)

	// A frame whose CRC is valid but whose batch count could never fit the
	// remaining bytes: the structural walk must reject it before sizing
	// anything from the count.
	dst := appendHeader(nil, FrameRollup)
	if dst, err = appendString(dst, "evil"); err != nil {
		t.Fatalf("seed hostile: %v", err)
	}
	dst = binary.LittleEndian.AppendUint64(dst, 1)
	dst = binary.LittleEndian.AppendUint64(dst, 0)
	dst = binary.LittleEndian.AppendUint32(dst, 0xFFFFFFFF)
	hostile, err := finishFrame(dst)
	if err != nil {
		t.Fatalf("seed hostile: %v", err)
	}

	return map[string][]byte{
		"seed_rollup":    rf,
		"seed_empty":     empty,
		"seed_mixed":     mixed,
		"seed_truncated": append([]byte(nil), rf[:len(rf)-9]...),
		"seed_bitflip":   flipped,
		"seed_hostile":   hostile,
	}
}

// FuzzRollupFrameDecode throws arbitrary bytes at the rollup structural
// walk, the full decoder, and the resyncing scanner's rollup path.
// Invariants: no panic, walk and decode agree on structural validity, a
// cleanly decoded rollup re-encodes into a frame that decodes back to the
// same structure, and the scanner terminates on every input.
func FuzzRollupFrameDecode(f *testing.F) {
	for _, seed := range rollupFuzzSeeds(f) {
		f.Add(seed)
	}
	f.Add([]byte{})
	f.Add([]byte("ZSAG"))

	f.Fuzz(func(t *testing.T, data []byte) {
		kind, ver, payload, err := ReadFrame(bytes.NewReader(data))
		if err == nil && kind == FrameRollup {
			var view rollupView
			walkErr := walkRollupPayload(payload, &view)
			ru, decErr := DecodeRollupPayload(payload, ver)
			if walkErr != nil && decErr == nil {
				t.Fatalf("walk rejected what the decoder accepted: %v", walkErr)
			}
			if walkErr == nil && len(view.batches)+len(view.snaps) > 0 && len(payload) < minRollupPayload {
				t.Fatalf("walk accepted an impossible %d-byte payload", len(payload))
			}
			if decErr == nil {
				re, err := EncodeRollupFrame(ru)
				if err != nil {
					t.Fatalf("decoded rollup failed to re-encode: %v", err)
				}
				// Embedded snapshot JSON is not byte-canonical (a fuzzed body
				// may order keys differently), so the invariant is structural:
				// the re-encoded frame decodes back to the same shape.
				ru2, err := DecodeRollupPayload(re[frameHeaderLen:], WireVersion)
				if err != nil {
					t.Fatalf("re-encoded rollup failed to decode: %v", err)
				}
				if ru2.LeafID != ru.LeafID || ru2.LeafEpoch != ru.LeafEpoch || ru2.Seq != ru.Seq ||
					len(ru2.Batches) != len(ru.Batches) || len(ru2.Snapshots) != len(ru.Snapshots) {
					t.Fatalf("rollup round-trip changed shape: %+v vs %+v", ru, ru2)
				}
				for i := range ru.Batches {
					if ru2.Batches[i].Origin != ru.Batches[i].Origin ||
						len(ru2.Batches[i].Events) != len(ru.Batches[i].Events) {
						t.Fatalf("rollup round-trip changed batch %d", i)
					}
				}
			}
		}

		// The ingest path: scan the input as a stream, walking every rollup
		// frame that survives its CRC. Must terminate and never panic.
		sc := NewFrameScanner(bytes.NewReader(data))
		var view rollupView
		for steps := 0; ; steps++ {
			if steps > len(data)+16 {
				t.Fatalf("scanner failed to terminate on %d-byte input", len(data))
			}
			kind, payload, err := sc.Next()
			if err == nil {
				if kind == FrameRollup {
					_ = walkRollupPayload(payload, &view)
				}
				continue
			}
			if errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
				break
			}
			var ce *CorruptFrameError
			if errors.As(err, &ce) {
				continue
			}
			break // terminal transport error (truncation mid-frame)
		}
	})
}

// TestRollupFuzzSeedCorpus pins the checked-in corpus, reusing the golden
// files' -update flag: the bytes on disk must match what today's encoder
// produces, so a wire-layout change that silently invalidates the corpus
// fails here first.
func TestRollupFuzzSeedCorpus(t *testing.T) {
	seeds := rollupFuzzSeeds(t)
	dir := filepath.Join("testdata", "fuzz", "FuzzRollupFrameDecode")
	if *update {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, frame := range seeds {
			body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(frame)) + ")\n"
			if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	for name, want := range seeds {
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s: %v (run with -update to regenerate the corpus)", name, err)
		}
		got, err := parseRollupCorpusFile(raw)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if string(got) != string(want) {
			t.Errorf("%s: checked-in corpus drifted from the generator (run with -update)", name)
		}
	}
}

// parseRollupCorpusFile reads the single []byte value of a `go test fuzz v1`
// corpus entry.
func parseRollupCorpusFile(raw []byte) ([]byte, error) {
	s := string(raw)
	const header = "go test fuzz v1\n[]byte("
	if len(s) < len(header) || s[:len(header)] != header {
		return nil, errors.New("not a go fuzz v1 []byte entry")
	}
	s = s[len(header):]
	if i := len(s) - 1; i >= 0 && s[i] == '\n' {
		s = s[:i]
	}
	if len(s) == 0 || s[len(s)-1] != ')' {
		return nil, errors.New("unterminated corpus entry")
	}
	v, err := strconv.Unquote(s[:len(s)-1])
	if err != nil {
		return nil, err
	}
	return []byte(v), nil
}
