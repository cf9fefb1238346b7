package aggd

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"zerosum/internal/core"
	"zerosum/internal/export"
)

// fuzzSeedFrames builds a representative set of well-formed frames plus a
// few near-miss mutations so the fuzzer starts inside the interesting part
// of the input space instead of hammering the magic check.
func fuzzSeedFrames(t interface{ Fatalf(string, ...any) }) [][]byte {
	batch := &Batch{
		Origin: Origin{Job: "fuzz", Node: "n00", Rank: 3},
		Epoch:  2,
		Seq:    7,
		Events: []export.Event{
			{Kind: export.EventHeartbeat, TimeSec: 1.5},
			{Kind: export.EventLWP, TimeSec: 2, LWP: &export.LWPSample{TID: 41, Kind: "Main", State: 'R', UserPct: 80, SysPct: 5, VCtx: 3, MinFlt: 9, CPU: 2}},
			{Kind: export.EventHWT, TimeSec: 2, HWT: &export.HWTSample{CPU: 1, IdlePct: 60, SysPct: 10, UserPct: 30}},
			{Kind: export.EventGPU, TimeSec: 2, GPU: &export.GPUSample{GPU: 0, Metric: "Device Busy %", Value: 42.5}},
			{Kind: export.EventMem, TimeSec: 3, Mem: &export.MemSample{TotalKB: 1 << 20, FreeKB: 1 << 18, ProcRSSKB: 1 << 16}},
			{Kind: export.EventIO, TimeSec: 3, IO: &export.IOSample{RChar: 100, WChar: 200, ReadBytes: 50}},
		},
	}
	bf, err := EncodeBatchFrame(batch)
	if err != nil {
		t.Fatalf("seed batch: %v", err)
	}
	sf, err := EncodeSnapshotFrame(&SnapshotMsg{
		Origin: Origin{Job: "fuzz", Node: "n00", Rank: 3},
		Snapshot: core.Snapshot{
			Rank: 3, Size: 4, Hostname: "n00", Samples: 10,
			LWPs: []core.ThreadSummary{{TID: 41, Label: "Main", Kind: core.KindMain, UTimePct: 80}},
			HWTs: []core.HWTSummary{{CPU: 0, IdlePct: 50, UserPct: 40, SysPct: 10}},
		},
		CommRow: map[int]uint64{0: 1024, 2: 4096},
	})
	if err != nil {
		t.Fatalf("seed snapshot: %v", err)
	}

	truncated := append([]byte(nil), bf[:len(bf)-3]...)
	flipped := append([]byte(nil), bf...)
	flipped[len(flipped)/2] ^= 0x40
	withGarbage := append([]byte("torn-write-residue"), sf...)
	backToBack := append(append([]byte(nil), bf...), sf...)

	// Interleaved multi-job body: a second job whose batch collides with
	// the first on node, rank, epoch, seq and TID — only the job name
	// differs — framed back to back with it, the way a shared leaf socket
	// carries several jobs' streams in one request.
	peer := *batch
	peer.Origin.Job = "fuzz2"
	pf, err := EncodeBatchFrame(&peer)
	if err != nil {
		t.Fatalf("seed peer batch: %v", err)
	}
	multiJob := append(append(append([]byte(nil), bf...), pf...), sf...)

	// An un-upgraded agent's frame between two current ones: a v4 frame
	// relabelled as retired version 3 (its CRC still holds) must be
	// refused without costing its neighbours.
	refused := append(append(append([]byte(nil), bf...), withVersion(pf, 3)...), bf...)

	// Hostile v4 payloads with valid CRCs, so they reach the batch decoder:
	// a dictionary count the bytes cannot hold, a non-minimal varint, and an
	// LWP TID delta that overflows int32.
	truncDict := v4Frame(t, []byte{2, 1, 'x'}) // claims 2 strings, carries 1
	nonMinimal := v4Frame(t, []byte{0x80, 0x00})
	overflow := v4Frame(t, append([]byte{
		1, 0, // dict: one empty string
		0, 0, // jobRef, nodeRef
		0,    // rank
		1, 0, // epoch, seq
		1,      // one event
		tagLWP, // LWP event
		0,      // time delta 0
	}, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01)) // tid zigzag delta = max uint64

	return [][]byte{bf, sf, truncated, flipped, withGarbage, backToBack,
		multiJob, refused, truncDict, nonMinimal, overflow}
}

// v4Frame wraps a raw v4 batch payload in a valid frame (correct magic,
// version, length, CRC), so fuzz seeds exercise the payload decoder rather
// than dying at the checksum.
func v4Frame(t interface{ Fatalf(string, ...any) }, payload []byte) []byte {
	dst := appendHeader(nil, FrameBatch)
	dst = append(dst, payload...)
	frame, err := finishFrame(dst)
	if err != nil {
		t.Fatalf("v4 seed frame: %v", err)
	}
	return frame
}

// FuzzWireDecode throws arbitrary bytes at the frame reader, the payload
// decoders, and the resyncing scanner. Invariants: no panic, the reader
// only ever accepts WireVersion (the checked-in corpus is all retired v2/v3
// frames, kept as refusal inputs), the scanner always terminates, and any
// frame that decodes cleanly re-encodes to the exact bytes that were
// consumed (wire canonical form).
func FuzzWireDecode(f *testing.F) {
	for _, seed := range fuzzSeedFrames(f) {
		f.Add(seed)
	}
	f.Add([]byte{})
	f.Add([]byte("ZSAG"))

	f.Fuzz(func(t *testing.T, data []byte) {
		kind, ver, payload, err := ReadFrame(bytes.NewReader(data))
		if err == nil {
			if ver != WireVersion {
				t.Fatalf("ReadFrame accepted wire version %d", ver)
			}
			switch kind {
			case FrameBatch:
				if b, err := DecodeBatchPayload(payload); err == nil {
					re, err := EncodeBatchFrame(b)
					if err != nil {
						t.Fatalf("decoded batch failed to re-encode: %v", err)
					}
					if consumed := data[:frameHeaderLen+len(payload)]; !bytes.Equal(re, consumed) {
						t.Fatalf("batch round-trip not canonical:\n in  %x\n out %x", consumed, re)
					}
				}
			case FrameSnapshot:
				_, _ = DecodeSnapshotPayload(payload)
			}
		}

		// The scanner must make progress through any input: each Next call
		// either yields a frame, reports a corrupt run, or ends the stream.
		sc := NewFrameScanner(bytes.NewReader(data))
		for steps := 0; ; steps++ {
			if steps > len(data)+16 {
				t.Fatalf("scanner failed to terminate on %d-byte input", len(data))
			}
			_, _, err := sc.Next()
			if err == nil {
				continue
			}
			if errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
				break
			}
			var ce *CorruptFrameError
			if errors.As(err, &ce) {
				if ce.Skipped == 0 {
					t.Fatalf("corrupt-frame report skipped zero bytes: %v", ce)
				}
				continue
			}
			break // terminal transport error (truncation mid-frame)
		}
	})
}
