package datagen

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"distjoin/internal/geom"
	"distjoin/internal/rtree"
)

// Dataset file format: a small header followed by fixed-size records,
// written by cmd/distjoin-gen and consumed by the other tools.
//
//	offset 0:  8-byte magic "DJDS0001"
//	offset 8:  uint64 record count
//	offset 16: records: int64 object id, 4 x float64 MBR (40 bytes)
const (
	datasetMagic      = "DJDS0001"
	datasetHeaderSize = 16
	datasetRecordSize = 40
)

// WriteFile writes items to path in the dataset format.
func WriteFile(path string, items []rtree.Item) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("datagen: create %s: %w", path, err)
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	if err := WriteTo(w, items); err != nil {
		return err
	}
	return w.Flush()
}

// WriteTo writes items in the dataset format to w.
func WriteTo(w io.Writer, items []rtree.Item) error {
	header := make([]byte, datasetHeaderSize)
	copy(header, datasetMagic)
	binary.LittleEndian.PutUint64(header[8:], uint64(len(items)))
	if _, err := w.Write(header); err != nil {
		return fmt.Errorf("datagen: write header: %w", err)
	}
	rec := make([]byte, datasetRecordSize)
	for _, it := range items {
		binary.LittleEndian.PutUint64(rec[0:], uint64(it.Obj))
		binary.LittleEndian.PutUint64(rec[8:], math.Float64bits(it.Rect.MinX))
		binary.LittleEndian.PutUint64(rec[16:], math.Float64bits(it.Rect.MinY))
		binary.LittleEndian.PutUint64(rec[24:], math.Float64bits(it.Rect.MaxX))
		binary.LittleEndian.PutUint64(rec[32:], math.Float64bits(it.Rect.MaxY))
		if _, err := w.Write(rec); err != nil {
			return fmt.Errorf("datagen: write record: %w", err)
		}
	}
	return nil
}

// Load reads a dataset file in either format, chosen by its extension:
// CSV for ".csv" (ReadCSV), the binary dataset format otherwise
// (ReadFile).
func Load(path string) ([]rtree.Item, error) {
	if !strings.HasSuffix(path, ".csv") {
		return ReadFile(path)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("datagen: open %s: %w", path, err)
	}
	defer f.Close()
	return ReadCSV(f)
}

// ReadFile loads a dataset previously written by WriteFile.
func ReadFile(path string) ([]rtree.Item, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("datagen: open %s: %w", path, err)
	}
	defer f.Close()
	return ReadFrom(bufio.NewReader(f))
}

// ReadFrom parses a dataset from r.
func ReadFrom(r io.Reader) ([]rtree.Item, error) {
	header := make([]byte, datasetHeaderSize)
	if _, err := io.ReadFull(r, header); err != nil {
		return nil, fmt.Errorf("datagen: read header: %w", err)
	}
	if string(header[:8]) != datasetMagic {
		return nil, fmt.Errorf("datagen: bad magic %q", header[:8])
	}
	count := binary.LittleEndian.Uint64(header[8:])
	// Cap the preallocation: the header is untrusted input and a
	// corrupt count must not force a huge allocation. The slice still
	// grows to the real size as records arrive.
	prealloc := count
	if prealloc > 1<<20 {
		prealloc = 1 << 20
	}
	items := make([]rtree.Item, 0, prealloc)
	rec := make([]byte, datasetRecordSize)
	for i := uint64(0); i < count; i++ {
		if _, err := io.ReadFull(r, rec); err != nil {
			return nil, fmt.Errorf("datagen: read record %d: %w", i, err)
		}
		it := rtree.Item{
			Obj: int64(binary.LittleEndian.Uint64(rec[0:])),
			Rect: geom.Rect{
				MinX: math.Float64frombits(binary.LittleEndian.Uint64(rec[8:])),
				MinY: math.Float64frombits(binary.LittleEndian.Uint64(rec[16:])),
				MaxX: math.Float64frombits(binary.LittleEndian.Uint64(rec[24:])),
				MaxY: math.Float64frombits(binary.LittleEndian.Uint64(rec[32:])),
			},
		}
		if !it.Rect.Valid() {
			return nil, fmt.Errorf("datagen: record %d has invalid rect %v", i, it.Rect)
		}
		items = append(items, it)
	}
	return items, nil
}

// CSV interop: one object per line, "id,minx,miny,maxx,maxy".
// WriteCSV/ReadCSV let real data sets (e.g. actual TIGER/Line extracts
// converted with standard GIS tooling) flow into distjoin-query.

// WriteCSV writes items as CSV records.
func WriteCSV(w io.Writer, items []rtree.Item) error {
	bw := bufio.NewWriter(w)
	for _, it := range items {
		if _, err := fmt.Fprintf(bw, "%d,%g,%g,%g,%g\n",
			it.Obj, it.Rect.MinX, it.Rect.MinY, it.Rect.MaxX, it.Rect.MaxY); err != nil {
			return fmt.Errorf("datagen: write csv: %w", err)
		}
	}
	return bw.Flush()
}

// ReadCSV parses "id,minx,miny,maxx,maxy" records. Blank lines and
// lines starting with '#' are skipped; coordinates are normalized so
// min <= max.
func ReadCSV(r io.Reader) ([]rtree.Item, error) {
	var items []rtree.Item
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, ",")
		if len(fields) != 5 {
			return nil, fmt.Errorf("datagen: csv line %d: want 5 fields, got %d", lineNo, len(fields))
		}
		id, err := strconv.ParseInt(strings.TrimSpace(fields[0]), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("datagen: csv line %d: bad id: %w", lineNo, err)
		}
		var coords [4]float64
		for i := 0; i < 4; i++ {
			coords[i], err = strconv.ParseFloat(strings.TrimSpace(fields[i+1]), 64)
			if err != nil {
				return nil, fmt.Errorf("datagen: csv line %d: bad coordinate: %w", lineNo, err)
			}
		}
		rect := geom.NewRect(coords[0], coords[1], coords[2], coords[3])
		if !rect.Valid() {
			return nil, fmt.Errorf("datagen: csv line %d: invalid rect", lineNo)
		}
		items = append(items, rtree.Item{Obj: id, Rect: rect})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("datagen: read csv: %w", err)
	}
	return items, nil
}
