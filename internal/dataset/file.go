package dataset

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"pvoronoi/internal/geom"
	"pvoronoi/internal/uncertain"
)

// fileMagic opens every dataset stream. The layout after it is
//
//	dim uint16 | domain lo/hi (2d float64) | count uint32 |
//	count × (id uint32 | nInstances uint32 | object)
//
// where each object is uncertain's fixed-width encoding and the domain is
// laid out like an object without instances.
const fileMagic = "PVDATA1\n"

// Save writes db to path in the repository's dataset format, consumed by
// cmd/pvquery and cmd/pvserve via Load.
func Save(db *uncertain.DB, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = SaveTo(db, f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// SaveTo writes db's dataset encoding to w — the stream form of Save, for
// callers that frame the payload themselves (the checkpoint path wraps it in
// a checksummed envelope).
func SaveTo(db *uncertain.DB, w io.Writer) error {
	buf := binary.LittleEndian.AppendUint16([]byte(fileMagic), uint16(db.Dim()))
	buf, err := uncertain.AppendObject(buf, &uncertain.Object{Region: db.Domain})
	if err != nil {
		return err
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(db.Len()))
	for _, o := range db.Objects() {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(o.ID))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(o.Instances)))
		if buf, err = uncertain.AppendObject(buf, o); err != nil {
			return err
		}
		if len(buf) >= 64<<10 {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	_, err = w.Write(buf)
	return err
}

// Load reads a database previously written by Save.
func Load(path string) (*uncertain.DB, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	db, err := decode(buf)
	if err != nil {
		return nil, fmt.Errorf("dataset: loading %s: %w", path, err)
	}
	return db, nil
}

// LoadFrom reads a dataset encoding written by SaveTo.
func LoadFrom(r io.Reader) (*uncertain.DB, error) {
	buf, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return decode(buf)
}

// decode parses a whole dataset stream. Nothing is allocated for a count
// before the bytes it claims are there, the domain must be a finite
// rectangle, and every object must pass the checks an index build applies
// (Object.Validate, DB.CheckInDomain).
func decode(buf []byte) (*uncertain.DB, error) {
	if len(buf) < len(fileMagic)+2 || string(buf[:len(fileMagic)]) != fileMagic {
		// gob names the top-level type in the stream's first message.
		if bytes.Contains(buf[:min(len(buf), 64)], []byte("fileFormat")) {
			return nil, fmt.Errorf("dataset: found a gob-encoded dataset, the format before %q; regenerate it", fileMagic)
		}
		return nil, fmt.Errorf("dataset: not a dataset stream: starts with %q, want %q", buf[:min(len(buf), len(fileMagic))], fileMagic)
	}
	d := int(binary.LittleEndian.Uint16(buf[len(fileMagic):]))
	if err := geom.CheckDim(d); err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	var domain uncertain.Object
	buf, err := uncertain.DecodeObject(&domain, buf[len(fileMagic)+2:], d, 0)
	if err != nil || len(buf) < 4 {
		return nil, fmt.Errorf("dataset: stream ends inside its header")
	}
	if err := domain.Validate(); err != nil {
		return nil, fmt.Errorf("dataset: domain: %w", err)
	}
	count := binary.LittleEndian.Uint32(buf)
	buf = buf[4:]
	db := uncertain.NewDB(domain.Region)
	for i := uint32(0); i < count; i++ {
		if len(buf) < 8 {
			return nil, fmt.Errorf("dataset: stream ends inside object %d of %d", i, count)
		}
		o := &uncertain.Object{ID: uncertain.ID(binary.LittleEndian.Uint32(buf))}
		buf, err = uncertain.DecodeObject(o, buf[8:], d, int(binary.LittleEndian.Uint32(buf[4:])))
		if err == nil {
			err = cmp.Or(o.Validate(), db.CheckInDomain(o), db.Add(o))
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: object %d of %d: %w", i, count, err)
		}
	}
	if len(buf) > 0 {
		return nil, fmt.Errorf("dataset: %d trailing bytes after %d objects", len(buf), count)
	}
	return db, nil
}
