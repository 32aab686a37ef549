package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// frameOf encodes r as Append frames it: length, CRC, type, seq, payload.
func frameOf(r Record) []byte {
	body := binary.LittleEndian.AppendUint64([]byte{byte(r.Type)}, r.Seq)
	body = append(body, r.Payload...)
	hdr := binary.LittleEndian.AppendUint32(nil, uint32(len(body)))
	hdr = binary.LittleEndian.AppendUint32(hdr, crc32.ChecksumIEEE(body))
	return append(hdr, body...)
}

// FuzzWALReplay puts arbitrary bytes where a log's newest segment lies —
// alone, or behind an intact older segment holding seqs 1…3 — then opens the
// directory (sealed or not) and replays it. Nothing may panic; Open may
// refuse the directory, but a log it opens replays only records that stand as
// CRC-valid frames in the bytes on disk, in strictly increasing sequence
// order, and replays them again identically after a reopen. Seeds: a segment
// of sealed group commits, the same torn mid-frame, cut on a frame boundary
// before its commit, with a flipped CRC byte and with a frame repeated, plus
// an empty file, a bare magic and a wrong magic.
func FuzzWALReplay(f *testing.F) {
	older := []byte(segMagic)
	for seq := uint64(1); seq <= 3; seq++ {
		older = append(older, frameOf(Record{Seq: seq, Type: TypeCommit})...)
	}
	seg := []byte(segMagic)
	var frames [][]byte
	for seq := uint64(4); seq <= 9; seq++ {
		r := Record{Seq: seq, Type: TypeInsert, Payload: []byte{byte(seq), 0xff, 0}}
		if seq%3 == 0 {
			r = Record{Seq: seq, Type: TypeCommit}
		}
		frames = append(frames, frameOf(r))
		seg = append(seg, frames[len(frames)-1]...)
	}
	flipped := bytes.Clone(seg)
	flipped[len(segMagic)+5] ^= 1
	repeated := append(bytes.Clone(seg), frames[1]...)
	for _, data := range [][]byte{
		seg, seg[:len(seg)-7], seg[:len(seg)-len(frames[5])], flipped, repeated,
		nil, []byte(segMagic), []byte("PVWAL000"),
	} {
		f.Add(data, false, false)
		f.Add(data, true, true)
	}
	f.Fuzz(func(t *testing.T, data []byte, behind, sealed bool) {
		dir := t.TempDir()
		var disk []byte
		if behind {
			disk = older
			if err := os.WriteFile(filepath.Join(dir, "seg-00000000.wal"), older, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		disk = append(bytes.Clone(disk), data...)
		if err := os.WriteFile(filepath.Join(dir, "seg-00000001.wal"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		replay := func() []Record {
			l, err := Open(dir, Options{Sealed: sealed})
			if err != nil {
				return nil
			}
			defer l.Close()
			var got []Record
			err = l.Replay(0, func(r Record) error {
				if len(got) > 0 && r.Seq <= got[len(got)-1].Seq {
					t.Fatalf("replayed seq %d after %d", r.Seq, got[len(got)-1].Seq)
				}
				if !bytes.Contains(disk, frameOf(r)) {
					t.Fatalf("replayed seq %d type %d: no CRC-valid frame of it on disk", r.Seq, r.Type)
				}
				got = append(got, Record{Seq: r.Seq, Type: r.Type, Payload: bytes.Clone(r.Payload)})
				return nil
			})
			if err != nil {
				t.Fatalf("replay of an opened log: %v", err)
			}
			return got
		}
		first, again := replay(), replay()
		if len(first) != len(again) {
			t.Fatalf("replayed %d records, %d after a reopen", len(first), len(again))
		}
		for i := range first {
			if !bytes.Equal(frameOf(first[i]), frameOf(again[i])) {
				t.Fatalf("record %d differs after a reopen", i)
			}
		}
	})
}
