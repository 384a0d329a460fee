package xcol

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"

	"github.com/midband5g/midband/internal/xcal"
)

// Format conversion between the row (.xcal) and columnar (.xcol)
// containers. Both directions preserve the metadata JSON and every
// signaling frame payload verbatim, and re-encode KPI records through
// the strict canonical codec — so converting a well-formed trace there
// and back reproduces it byte for byte (enforced by TestConvertRoundTrip
// and the xcaldump convert tests).

const rowMaxFrame = 1 << 20 // mirrors xcal's frame size limit

// ConvertRowToCol reads a row trace from r and writes it as a columnar
// trace to w, returning the number of KPI records converted.
func ConvertRowToCol(r io.Reader, w io.Writer) (uint64, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var head [10]byte
	if _, err := io.ReadFull(br, head[:]); err != nil {
		return 0, fmt.Errorf("xcol: reading row trace header: %w", err)
	}
	if [8]byte(head[:8]) != xcal.TraceMagic {
		return 0, errors.New("xcol: source is not a row trace")
	}
	if v := binary.LittleEndian.Uint16(head[8:]); v != xcal.TraceVersion {
		return 0, fmt.Errorf("xcol: unsupported row trace version %d", v)
	}
	var (
		cw  *Writer
		buf []byte
		kpi xcal.SlotKPI
	)
	for {
		var fh [5]byte
		if _, err := io.ReadFull(br, fh[:]); err != nil {
			if err == io.EOF {
				break
			}
			return 0, fmt.Errorf("xcol: reading row frame header: %w", err)
		}
		t := xcal.FrameType(fh[0])
		n := binary.LittleEndian.Uint32(fh[1:])
		if n > rowMaxFrame {
			return 0, fmt.Errorf("xcol: row frame of %d bytes exceeds limit", n)
		}
		if cap(buf) < int(n) {
			buf = make([]byte, n)
		}
		buf = buf[:n]
		if _, err := io.ReadFull(br, buf); err != nil {
			return 0, fmt.Errorf("xcol: reading row frame payload: %w", err)
		}
		if cw == nil {
			if t != xcal.FrameMeta {
				return 0, fmt.Errorf("xcol: first row frame is %d, want meta", t)
			}
			if !json.Valid(buf) {
				return 0, errors.New("xcol: row meta frame is not valid JSON")
			}
			var err error
			cw, err = NewWriterMetaJSON(w, buf)
			if err != nil {
				return 0, err
			}
			continue
		}
		switch t {
		case xcal.FrameKPI:
			if err := xcal.DecodeSlotKPI(buf, &kpi); err != nil {
				return 0, err
			}
			if err := cw.WriteKPI(&kpi); err != nil {
				return 0, err
			}
		case xcal.FrameMIB, xcal.FrameSIB1, xcal.FrameDCI, xcal.FrameEvent:
			if err := cw.writeRawAux(t, buf); err != nil {
				return 0, err
			}
		case xcal.FrameMeta:
			return 0, errors.New("xcol: duplicate meta frame in row trace")
		default:
			return 0, fmt.Errorf("xcol: unknown row frame type %d", t)
		}
	}
	if cw == nil {
		return 0, errors.New("xcol: row trace has no frames")
	}
	if err := cw.Close(); err != nil {
		return 0, err
	}
	return cw.Records(), nil
}

// auxFrame is one buffered signaling frame during columnar→row
// conversion.
type auxFrame struct {
	t       xcal.FrameType
	pos     uint64 // KPI records written before the frame
	ord     int    // arrival order, the tiebreak within a position
	payload []byte
}

// ConvertColToRow reads a columnar trace and writes it as a row trace,
// re-interleaving signaling frames at their recorded KPI positions; it
// is the only writer of the legacy row container. It returns the number
// of KPI records converted. Corrupt blocks abort the
// conversion — a converter must not silently drop data.
func ConvertColToRow(r io.ReaderAt, size int64, w io.Writer) (uint64, error) {
	s, err := NewScanner(r, size)
	if err != nil {
		return 0, err
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.Write(xcal.TraceMagic[:]); err != nil {
		return 0, err
	}
	var v [2]byte
	binary.LittleEndian.PutUint16(v[:], xcal.TraceVersion)
	if _, err := bw.Write(v[:]); err != nil {
		return 0, err
	}
	frame := func(t xcal.FrameType, payload []byte) error {
		var fh [5]byte
		fh[0] = uint8(t)
		binary.LittleEndian.PutUint32(fh[1:], uint32(len(payload)))
		if _, err := bw.Write(fh[:]); err != nil {
			return err
		}
		_, err := bw.Write(payload)
		return err
	}
	if err := frame(xcal.FrameMeta, s.MetaJSON()); err != nil {
		return 0, err
	}

	// Buffer the signaling frames; they are tiny next to the KPI stream.
	var aux []auxFrame
	err = s.AuxFrames(func(t xcal.FrameType, pos uint64, payload []byte) error {
		aux = append(aux, auxFrame{t: t, pos: pos, ord: len(aux),
			payload: append([]byte(nil), payload...)})
		return nil
	})
	if err != nil {
		return 0, err
	}
	if len(s.Corrupt()) > 0 {
		return 0, s.Corrupt()[0]
	}
	// Aux blocks are already in file order, but be explicit that the
	// merge key is (position, arrival order).
	sort.SliceStable(aux, func(i, j int) bool { return aux[i].pos < aux[j].pos })

	var (
		nKPI uint64
		ai   int
		kbuf []byte
		kpi  xcal.SlotKPI
	)
	emitAuxThrough := func(pos uint64) error {
		for ai < len(aux) && aux[ai].pos <= pos {
			if err := frame(aux[ai].t, aux[ai].payload); err != nil {
				return err
			}
			ai++
		}
		return nil
	}
	for {
		b, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, err
		}
		for i := 0; i < b.Count; i++ {
			if err := emitAuxThrough(nKPI); err != nil {
				return 0, err
			}
			b.Row(i, &kpi)
			kbuf = kpi.AppendTo(kbuf[:0])
			if err := frame(xcal.FrameKPI, kbuf); err != nil {
				return 0, err
			}
			nKPI++
		}
	}
	if len(s.Corrupt()) > 0 {
		return 0, s.Corrupt()[0]
	}
	// Frames recorded after the last KPI record.
	for ; ai < len(aux); ai++ {
		if err := frame(aux[ai].t, aux[ai].payload); err != nil {
			return 0, err
		}
	}
	return nKPI, bw.Flush()
}

// DetectFormat sniffs the container magic of the file at path. It
// returns "xcal" for the row container, "xcol" for the columnar one,
// and an error otherwise.
func DetectFormat(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	var head [8]byte
	if _, err := io.ReadFull(f, head[:]); err != nil {
		return "", fmt.Errorf("xcol: reading magic: %w", err)
	}
	switch head {
	case xcal.TraceMagic:
		return "xcal", nil
	case Magic:
		return "xcol", nil
	}
	return "", errors.New("xcol: unrecognized trace magic")
}

// ConvertFile converts the trace at src into the opposite container at
// dst, choosing the direction from src's magic. It returns the
// direction taken ("xcal→xcol" or "xcol→xcal") and the KPI record
// count.
func ConvertFile(src, dst string) (string, uint64, error) {
	format, err := DetectFormat(src)
	if err != nil {
		return "", 0, err
	}
	in, err := os.Open(src)
	if err != nil {
		return "", 0, err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return "", 0, err
	}
	var n uint64
	var dir string
	switch format {
	case "xcal":
		dir = "xcal→xcol"
		n, err = ConvertRowToCol(in, out)
	case "xcol":
		dir = "xcol→xcal"
		fi, serr := in.Stat()
		if serr != nil {
			err = serr
			break
		}
		n, err = ConvertColToRow(in, fi.Size(), out)
	}
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(dst)
		return dir, 0, err
	}
	return dir, n, nil
}
