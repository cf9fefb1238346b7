package aggd

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"zerosum/internal/core"
	"zerosum/internal/export"
	"zerosum/internal/topology"
)

func sampleBatch() *Batch {
	return &Batch{
		Origin: Origin{Job: "job-42", Node: "node-0003", Rank: 7},
		Seq:    9,
		Events: []export.Event{
			{Kind: export.EventLWP, TimeSec: 1.5, LWP: &export.LWPSample{
				TimeSec: 1.5, TID: 1234, Kind: "Main, OpenMP", State: 'R',
				UserPct: 97.25, SysPct: 1.5, VCtx: 10, NVCtx: 20000,
				MinFlt: 3, MajFlt: 1, NSwap: 0, CPU: 33,
			}},
			{Kind: export.EventHWT, TimeSec: 1.5, HWT: &export.HWTSample{
				TimeSec: 1.5, CPU: 33, IdlePct: 2.5, SysPct: 0.5, UserPct: 97,
			}},
			{Kind: export.EventGPU, TimeSec: 1.5, GPU: &export.GPUSample{
				TimeSec: 1.5, GPU: 2, Metric: "Device Busy %", Value: 88.5,
			}},
			{Kind: export.EventMem, TimeSec: 2.5, Mem: &export.MemSample{
				TimeSec: 2.5, TotalKB: 1 << 29, FreeKB: 1 << 28,
				AvailKB: 1 << 27, ProcRSSKB: 4096, ProcHWMKB: 8192,
			}},
			{Kind: export.EventIO, TimeSec: 2.5, IO: &export.IOSample{
				TimeSec: 2.5, RChar: 1, WChar: 2, SyscR: 3, SyscW: 4,
				ReadBytes: 5, WriteBytes: 6,
			}},
			{Kind: export.EventHeartbeat, TimeSec: 3.5},
		},
	}
}

func TestBatchRoundTrip(t *testing.T) {
	want := sampleBatch()
	frame, err := EncodeBatchFrame(want)
	if err != nil {
		t.Fatal(err)
	}
	kind, ver, payload, err := ReadFrame(bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	if kind != FrameBatch || ver != WireVersion {
		t.Fatalf("kind = %d, ver = %d", kind, ver)
	}
	got, err := DecodeBatchPayload(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\ngot  %+v\nwant %+v", got, want)
	}
}

func TestBatchRoundTripEmpty(t *testing.T) {
	want := &Batch{Origin: Origin{Job: "j", Node: "n", Rank: -1}, Seq: 0}
	frame, err := EncodeBatchFrame(want)
	if err != nil {
		t.Fatal(err)
	}
	_, _, payload, err := ReadFrame(bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBatchPayload(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rank != -1 || got.Job != "j" || len(got.Events) != 0 {
		t.Fatalf("got %+v", got)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	want := &SnapshotMsg{
		Origin: Origin{Job: "job-42", Node: "node-0001", Rank: 3},
		Snapshot: core.Snapshot{
			DurationSec: 27.5, Rank: 3, Size: 8, PID: 4242,
			Hostname: "node-0001", Comm: "miniqmc",
			ProcessAff: topology.RangeCPUSet(1, 7),
			LWPs: []core.ThreadSummary{{
				TID: 4242, Label: "Main", Kind: core.KindMain,
				UTimePct: 93.5, STimePct: 2.25, NVCtx: 17, VCtx: 4,
				Affinity:     topology.NewCPUSet(1),
				ObservedCPUs: topology.NewCPUSet(1, 2),
				CPUChanges:   1, MinFlt: 12,
			}},
			HWTs:         []core.HWTSummary{{CPU: 1, IdlePct: 3, SysPct: 2, UserPct: 95}},
			MemPeakRSSKB: 1 << 20,
		},
		CommRow: map[int]uint64{2: 7 << 20, 4: 1 << 20},
	}
	frame, err := EncodeSnapshotFrame(want)
	if err != nil {
		t.Fatal(err)
	}
	kind, _, payload, err := ReadFrame(bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	if kind != FrameSnapshot {
		t.Fatalf("kind = %d", kind)
	}
	got, err := DecodeSnapshotPayload(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\ngot  %+v\nwant %+v", got, want)
	}
}

func TestReadFrameConcatenated(t *testing.T) {
	b := sampleBatch()
	var buf []byte
	var err error
	for i := 0; i < 3; i++ {
		b.Seq = uint64(i)
		if buf, err = AppendBatchFrame(buf, b); err != nil {
			t.Fatal(err)
		}
	}
	r := bytes.NewReader(buf)
	for i := 0; i < 3; i++ {
		_, _, payload, err := ReadFrame(r)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		got, err := DecodeBatchPayload(payload)
		if err != nil {
			t.Fatal(err)
		}
		if got.Seq != uint64(i) {
			t.Fatalf("frame %d has seq %d", i, got.Seq)
		}
	}
	if _, _, _, err := ReadFrame(r); err != io.EOF {
		t.Fatalf("want io.EOF after last frame, got %v", err)
	}
}

func TestReadFrameRejectsGarbage(t *testing.T) {
	frame, err := EncodeBatchFrame(sampleBatch())
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"bad magic":   append([]byte("NOPE"), frame[4:]...),
		"bad version": append(append([]byte{}, frame[:4]...), append([]byte{99}, frame[5:]...)...),
		"truncated":   frame[:len(frame)-5],
	}
	for name, data := range cases {
		if _, _, _, err := ReadFrame(bytes.NewReader(data)); err == nil || err == io.EOF {
			t.Errorf("%s: want error, got %v", name, err)
		}
	}
}

func TestDecodeBatchPayloadRejectsTrailing(t *testing.T) {
	frame, err := EncodeBatchFrame(sampleBatch())
	if err != nil {
		t.Fatal(err)
	}
	_, _, payload, err := ReadFrame(bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeBatchPayload(append(payload, 0)); err == nil {
		t.Fatal("trailing byte not rejected")
	}
	if _, err := DecodeBatchPayload(payload[:len(payload)-1]); err == nil {
		t.Fatal("truncated payload not rejected")
	}
}

func TestEncodeRejectsNilPayload(t *testing.T) {
	b := &Batch{Events: []export.Event{{Kind: export.EventLWP}}}
	if _, err := EncodeBatchFrame(b); err == nil {
		t.Fatal("nil LWP payload not rejected")
	}
}

// v2BatchFrame hand-encodes b as a wire-version-2 frame: the fixed-width
// layout an agent from before the stalled flag (§3.3) shipped. Readers now
// refuse it; the helper keeps that refusal tested against real v2 bytes.
func v2BatchFrame(t testing.TB, b *Batch) []byte {
	t.Helper()
	dst := appendHeader(nil, FrameBatch)
	dst[4] = 2
	appendF64 := func(dst []byte, v float64) []byte {
		return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	var err error
	if dst, err = appendString(dst, b.Job); err != nil {
		t.Fatal(err)
	}
	if dst, err = appendString(dst, b.Node); err != nil {
		t.Fatal(err)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(b.Rank)))
	dst = binary.LittleEndian.AppendUint64(dst, b.Epoch)
	dst = binary.LittleEndian.AppendUint64(dst, b.Seq)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(b.Events)))
	for i := range b.Events {
		ev := &b.Events[i]
		if ev.Kind != export.EventLWP {
			t.Fatalf("v2BatchFrame only encodes LWP events, got kind %d", ev.Kind)
		}
		l := ev.LWP
		dst = append(dst, tagLWP)
		dst = appendF64(dst, ev.TimeSec)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(l.TID)))
		if dst, err = appendString(dst, l.Kind); err != nil {
			t.Fatal(err)
		}
		dst = append(dst, l.State) // v2: no stalled byte after the state
		dst = appendF64(dst, l.UserPct)
		dst = appendF64(dst, l.SysPct)
		dst = binary.LittleEndian.AppendUint64(dst, l.VCtx)
		dst = binary.LittleEndian.AppendUint64(dst, l.NVCtx)
		dst = binary.LittleEndian.AppendUint64(dst, l.MinFlt)
		dst = binary.LittleEndian.AppendUint64(dst, l.MajFlt)
		dst = binary.LittleEndian.AppendUint64(dst, l.NSwap)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(l.CPU)))
	}
	frame, err := finishFrame(dst)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// withVersion returns a copy of frame with its header's version byte set to
// ver. The CRC covers only the payload, so the copy is intact apart from the
// version it claims.
func withVersion(frame []byte, ver byte) []byte {
	out := append([]byte(nil), frame...)
	out[4] = ver
	return out
}

// v2Batch is a one-LWP-event batch in the shape a v2 agent shipped.
func v2Batch() *Batch {
	return &Batch{
		Origin: Origin{Job: "roll", Node: "n1", Rank: 2},
		Epoch:  1, Seq: 4,
		Events: []export.Event{
			{Kind: export.EventLWP, TimeSec: 1.5, LWP: &export.LWPSample{
				TimeSec: 1.5, TID: 99, Kind: "Main", State: 'R',
				UserPct: 50, SysPct: 2, VCtx: 7, NVCtx: 11,
				MinFlt: 1, MajFlt: 0, NSwap: 0, CPU: 3,
			}},
		},
	}
}

// TestDecodeBatchPayloadV2Compat pins the compatibility policy, which is
// refusal: only WireVersion is read. A real v2 frame and a v4 frame
// relabelled as v3 are both refused with the version named, and the
// payload decoder refuses every version but WireVersion.
func TestDecodeBatchPayloadV2Compat(t *testing.T) {
	v4, err := EncodeBatchFrame(sampleBatch())
	if err != nil {
		t.Fatal(err)
	}
	for ver, frame := range map[int][]byte{
		2: v2BatchFrame(t, v2Batch()),
		3: withVersion(v4, 3),
	} {
		_, _, _, err := ReadFrame(bytes.NewReader(frame))
		if want := fmt.Sprintf("unsupported wire version %d", ver); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("v%d frame: got %v, want %q", ver, err, want)
		}
	}
	payload := v4[FrameHeaderLen:]
	if _, err := DecodeBatchPayloadVersionInto(payload, WireVersion, new(BatchBuf)); err != nil {
		t.Fatalf("current version rejected: %v", err)
	}
	for _, ver := range []uint8{1, 2, 3, WireVersion + 1} {
		if _, err := DecodeBatchPayloadVersionInto(payload, ver, new(BatchBuf)); err == nil {
			t.Errorf("version %d not rejected", ver)
		}
	}
}

// TestFrameScannerMixedVersions: a body holding a v2, a v3 and a v4 frame
// — an un-upgraded agent's traffic beside a current one — yields only the
// v4 batch; each refused frame is one CorruptFrameError naming its version.
// The server applies the v4 batch, counts both refusals and answers 400 with
// the version in the body, so the operator of an old agent sees the cause.
func TestFrameScannerMixedVersions(t *testing.T) {
	v4 := sampleBatch()
	v4Frame, err := EncodeBatchFrame(v4)
	if err != nil {
		t.Fatal(err)
	}
	v3 := sampleBatch()
	v3.Seq = 5
	v3Frame, err := EncodeBatchFrame(v3)
	if err != nil {
		t.Fatal(err)
	}
	v2Frame := v2BatchFrame(t, v2Batch())
	body := append(append(append([]byte(nil), v2Frame...), withVersion(v3Frame, 3)...), v4Frame...)

	sc := NewFrameScanner(bytes.NewReader(body))
	for _, want := range []struct {
		ver  int
		span int
	}{{2, len(v2Frame)}, {3, len(v3Frame)}} {
		_, _, err := sc.Next()
		var ce *CorruptFrameError
		if !errors.As(err, &ce) {
			t.Fatalf("v%d frame: got %v, want CorruptFrameError", want.ver, err)
		}
		if reason := fmt.Sprintf("unsupported wire version %d", want.ver); ce.Reason != reason || ce.Skipped != want.span {
			t.Fatalf("v%d frame: %v, want %q over %d bytes", want.ver, ce, reason, want.span)
		}
	}
	kind, payload, err := sc.Next()
	if err != nil || kind != FrameBatch || sc.Version() != WireVersion {
		t.Fatalf("v4 frame: kind %d version %d err %v", kind, sc.Version(), err)
	}
	b, err := DecodeBatchPayloadInto(payload, new(BatchBuf))
	if err != nil || b.Seq != v4.Seq {
		t.Fatalf("v4 frame: batch %+v err %v", b, err)
	}
	if _, _, err := sc.Next(); err != io.EOF {
		t.Fatalf("want io.EOF, got %v", err)
	}

	srv := NewServer(ServerConfig{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/api/ingest", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	msg, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "unsupported wire version 2") {
		t.Fatalf("mixed-version body answered %d %q, want 400 naming version 2", resp.StatusCode, msg)
	}
	if st := srv.Stats(); st.IngestBatches != 1 || st.IngestEvents != uint64(len(v4.Events)) ||
		st.CorruptFrames != 2 || st.IngestErrors != 1 {
		t.Fatalf("after mixed-version body: %+v", st)
	}
}
