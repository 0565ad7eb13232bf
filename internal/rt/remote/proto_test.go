package remote

import (
	"bytes"
	"encoding/binary"
	"io"
	"runtime"
	"testing"
)

// FuzzReadFrame checks the frame reader against writeFrame: every written
// frame reads back unchanged, arbitrary bytes never panic it, and a frame cut
// short anywhere is an error, not a shorter message.
func FuzzReadFrame(f *testing.F) {
	f.Add(msgBlock, []byte("payload"), []byte{msgDone, 0, 0, 0, 3, 1, 2, 3}, uint(1))
	f.Add(msgPing, []byte{}, []byte{msgFetch, 0x40, 0, 0, 0}, uint(0))
	f.Add(msgTask, bytes.Repeat([]byte{7}, 300), []byte{msgHello, 0xff, 0xff, 0xff, 0xff}, uint(5))
	f.Fuzz(func(t *testing.T, typ byte, payload, raw []byte, cut uint) {
		// Arbitrary input: an error or a frame, never a panic.
		if gotTyp, got, err := readFrame(bytes.NewReader(raw)); err == nil {
			if len(raw) < 5 || gotTyp != raw[0] || !bytes.Equal(got, raw[5:5+len(got)]) {
				t.Fatalf("readFrame(%x) = (%d, %x) not a prefix frame of the input", raw, gotTyp, got)
			}
		}

		var buf bytes.Buffer
		if err := writeFrame(&buf, typ, payload); err != nil {
			t.Fatal(err)
		}
		frame := buf.Bytes()
		gotTyp, got, err := readFrame(bytes.NewReader(frame))
		if err != nil {
			t.Fatalf("round trip of %d-byte payload: %v", len(payload), err)
		}
		if gotTyp != typ || !bytes.Equal(got, payload) {
			t.Fatalf("round trip = (%d, %x), want (%d, %x)", gotTyp, got, typ, payload)
		}

		short := frame[:int(cut%uint(len(frame)))]
		if _, _, err := readFrame(bytes.NewReader(short)); err == nil {
			t.Fatalf("frame truncated to %d of %d bytes read without error", len(short), len(frame))
		}
	})
}

// TestReadFrameForgedHeaderBounded sends a 5-byte header claiming a 1 GiB
// payload and then closes: the reader must fail having allocated a bounded
// amount, not the claimed size.
func TestReadFrameForgedHeaderBounded(t *testing.T) {
	hdr := []byte{msgBlock, 0, 0, 0, 0}
	binary.BigEndian.PutUint32(hdr[1:], maxFrame)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := readFrame(bytes.NewReader(hdr))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("forged header with no payload read without error")
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 4<<20 {
		t.Fatalf("forged 1 GiB header allocated %d bytes, want <= 4 MiB", alloc)
	}
}

// TestReadFrameLargePayload round-trips payloads on both sides of the
// up-front allocation limit, including one that grows several times.
func TestReadFrameLargePayload(t *testing.T) {
	for _, n := range []int{frameChunk - 1, frameChunk, frameChunk + 1, 5*frameChunk + 17} {
		payload := make([]byte, n)
		for i := range payload {
			payload[i] = byte(i * 31)
		}
		var buf bytes.Buffer
		if err := writeFrame(&buf, msgDone, payload); err != nil {
			t.Fatal(err)
		}
		frame := buf.Bytes()
		typ, got, err := readFrame(bytes.NewReader(frame))
		if err != nil || typ != msgDone || !bytes.Equal(got, payload) {
			t.Fatalf("n=%d: round trip failed (typ %d, %d bytes, err %v)", n, typ, len(got), err)
		}
		if len(got) != cap(got) {
			t.Errorf("n=%d: payload capacity %d, want exactly %d", n, cap(got), len(got))
		}
		for _, short := range []int{len(frame) - 1, 5 + frameChunk, 5} {
			if short >= len(frame) {
				continue
			}
			if _, _, err := readFrame(bytes.NewReader(frame[:short])); err != io.ErrUnexpectedEOF {
				t.Errorf("n=%d cut to %d bytes: err = %v, want io.ErrUnexpectedEOF", n, short, err)
			}
		}
	}
}
