// Package dsfile reads and writes dataset files on the real filesystem —
// the interchange format of the odyssey-gen and odyssey-explore tools. A
// dataset file is a small header followed by fixed-width object records
// (the same record codec used on the simulated disk).
package dsfile

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"

	"spaceodyssey/internal/object"
)

// magic identifies a dataset file ("SODY" little-endian).
const magic = 0x59444F53

// version is the current format version.
const version = 1

// headerSize is magic(4) + version(4) + dataset(4) + pad(4) + count(8).
const headerSize = 24

// Format errors.
var (
	ErrBadMagic   = errors.New("dsfile: not a dataset file")
	ErrBadVersion = errors.New("dsfile: unsupported version")
	ErrTruncated  = errors.New("dsfile: truncated file")
)

// Save writes objs as a dataset file at path.
func Save(path string, ds object.DatasetID, objs []object.Object) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	header := make([]byte, headerSize)
	binary.LittleEndian.PutUint32(header[0:], magic)
	binary.LittleEndian.PutUint32(header[4:], version)
	binary.LittleEndian.PutUint32(header[8:], uint32(ds))
	binary.LittleEndian.PutUint64(header[16:], uint64(len(objs)))
	if _, err := w.Write(header); err != nil {
		f.Close()
		return err
	}
	rec := make([]byte, object.RecordSize)
	for _, o := range objs {
		object.EncodeRecord(rec, o)
		if _, err := w.Write(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Load reads a dataset file. The header's record count must match the
// file's size before anything is allocated for the records, so a corrupt
// count cannot ask for more memory than the file could fill.
func Load(path string) (object.DatasetID, []object.Object, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return 0, nil, err
	}
	r := bufio.NewReader(f)
	header := make([]byte, headerSize)
	if _, err := io.ReadFull(r, header); err != nil {
		return 0, nil, fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	if binary.LittleEndian.Uint32(header[0:]) != magic {
		return 0, nil, ErrBadMagic
	}
	if v := binary.LittleEndian.Uint32(header[4:]); v != version {
		return 0, nil, fmt.Errorf("%w: %d", ErrBadVersion, v)
	}
	ds := object.DatasetID(binary.LittleEndian.Uint32(header[8:]))
	count := binary.LittleEndian.Uint64(header[16:])
	if rest := fi.Size() - headerSize; rest%object.RecordSize != 0 || uint64(rest/object.RecordSize) != count {
		return 0, nil, fmt.Errorf("%w: header claims %d records, the file holds %d bytes after its header",
			ErrTruncated, count, rest)
	}
	objs := make([]object.Object, 0, count)
	rec := make([]byte, object.RecordSize)
	for i := uint64(0); i < count; i++ {
		if _, err := io.ReadFull(r, rec); err != nil {
			return 0, nil, fmt.Errorf("%w: record %d: %v", ErrTruncated, i, err)
		}
		objs = append(objs, object.DecodeRecord(rec))
	}
	return ds, objs, nil
}
