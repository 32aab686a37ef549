package pvindex

import (
	"encoding/binary"
	"fmt"

	"pvoronoi/internal/uncertain"
	"pvoronoi/internal/wal"
)

// An insert payload is walInsertMagic (uncertain's fixed-width object codec,
// version 1) | dim uint16 | id uint32 | nInstances uint32 | the object. An
// insert a gob-era binary logged does not open with the magic and is refused
// by sequence number.
const (
	walInsertMagic = "PVO1"
	walInsertHead  = len(walInsertMagic) + 2 + 4 + 4
)

// encodeUpdate turns one batch update into a WAL entry; a delete's payload is
// the ID (uint32).
func encodeUpdate(u Update) (wal.Entry, error) {
	switch u.Op {
	case OpInsert:
		o := u.Object
		buf := binary.LittleEndian.AppendUint16([]byte(walInsertMagic), uint16(o.Dim()))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(o.ID))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(o.Instances)))
		buf, err := uncertain.AppendObject(buf, o)
		if err != nil {
			return wal.Entry{}, fmt.Errorf("pvindex: encoding insert for wal: %w", err)
		}
		return wal.Entry{Type: wal.TypeInsert, Payload: buf}, nil
	case OpDelete:
		return wal.Entry{Type: wal.TypeDelete, Payload: binary.LittleEndian.AppendUint32(nil, uint32(u.ID))}, nil
	default:
		return wal.Entry{}, fmt.Errorf("pvindex: encoding unknown op %d for wal", u.Op)
	}
}

// decodeUpdate reconstructs a batch update from a replayed WAL record,
// refusing a payload whose lengths disagree with its header.
func decodeUpdate(rec wal.Record) (Update, error) {
	p := rec.Payload
	switch rec.Type {
	case wal.TypeInsert:
		if len(p) < walInsertHead || string(p[:len(walInsertMagic)]) != walInsertMagic {
			return Update{}, fmt.Errorf("pvindex: wal insert %d is not a %q payload (a log written before the fixed-width codec holds gob, which is no longer read)", rec.Seq, walInsertMagic)
		}
		h := p[len(walInsertMagic):]
		o := &uncertain.Object{ID: uncertain.ID(binary.LittleEndian.Uint32(h[2:6]))}
		rest, err := uncertain.DecodeObject(o, p[walInsertHead:], int(binary.LittleEndian.Uint16(h[0:2])), int(binary.LittleEndian.Uint32(h[6:10])))
		if err == nil && len(rest) > 0 {
			err = fmt.Errorf("%d trailing bytes", len(rest))
		}
		if err != nil {
			return Update{}, fmt.Errorf("pvindex: decoding wal insert %d: %w", rec.Seq, err)
		}
		return Update{Op: OpInsert, Object: o}, nil
	case wal.TypeDelete:
		if len(p) != 4 {
			return Update{}, fmt.Errorf("pvindex: wal delete %d has a %d-byte payload, want 4", rec.Seq, len(p))
		}
		return Update{Op: OpDelete, ID: uncertain.ID(binary.LittleEndian.Uint32(p))}, nil
	default:
		return Update{}, fmt.Errorf("pvindex: wal record %d has unknown type %d", rec.Seq, rec.Type)
	}
}
