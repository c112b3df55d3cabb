package vm

import (
	"bytes"
	"encoding/binary"
)

// Page granularity of dirty tracking, snapshot deltas and convergence
// comparison. 256 bytes keeps the page tables small for the suite's
// kilobyte-scale segments while still making a dirtied page cheap to
// copy at snapshot time.
const (
	pageShift = 8
	pageSize  = 1 << pageShift
)

// pageOf returns the page index covering byte offset off.
func pageOf(off int) int { return off >> pageShift }

// numPages returns the number of pages covering n bytes.
func numPages(n int) int { return (n + pageSize - 1) >> pageShift }

// bitmap is a fixed-capacity bitset over page indices.
type bitmap []uint64

// ensureBits returns a cleared bitmap covering pages, reusing b's storage
// when it is large enough. Machines are pooled across runs, so tracking
// bitmaps are recycled rather than reallocated per experiment.
func ensureBits(b bitmap, pages int) bitmap {
	words := (pages + 63) / 64
	if cap(b) < words {
		return make(bitmap, words)
	}
	b = b[:words]
	clear(b)
	return b
}

func (b bitmap) get(i int) bool { return b[i>>6]&(1<<uint(i&63)) != 0 }
func (b bitmap) set(i int)      { b[i>>6] |= 1 << uint(i&63) }

// mem is one byte segment of the machine (globals or stack), held flat:
// flat is its content. The globals' flat covers the whole segment. The
// stack's covers at least [0, stackHW), the bytes ever mapped, and grows
// with the high-water mark; bytes beyond it are zero. Fresh runs copy
// the program image, and restore flattens the snapshot's page tables, so
// the machine never writes through to shared snapshot pages.
//
// dirty, when non-nil, records the pages stored to: since the last
// snapshot capture in a checkpointing run, and since the run's start in
// a run that checks convergence. Other runs do not pay for it.
type mem struct {
	n     int    // segment length in bytes
	flat  []byte // private storage; the stack's grows toward n
	dirty bitmap
}

// flatMem returns an n-byte segment whose content is flat.
func flatMem(n int, flat []byte) mem { return mem{n: n, flat: flat} }

// track enables dirty-page tracking (checkpointing and convergence-
// checking runs), reusing buf's storage when it is large enough.
func (s *mem) track(buf bitmap) { s.dirty = ensureBits(buf, numPages(s.n)) }

// pageBytes returns page p's content. Bytes beyond flat are zero by the
// segment invariants (stack above the high-water mark, growFlat's
// zero-fill).
func (s *mem) pageBytes(p int) []byte {
	lo := p << pageShift
	hi := lo + pageSize
	if hi > s.n {
		hi = s.n
	}
	if lo >= len(s.flat) {
		return nil
	}
	if hi > len(s.flat) {
		hi = len(s.flat)
	}
	return s.flat[lo:hi]
}

// sameAs reports whether the segment holds exactly the content of page
// table tbl, given that it started as page table start and has since
// been stored to only on its dirty pages. A page it never dirtied still
// holds start's bytes, so where tbl shares start's slice for that page
// the two are equal without a look; every other page is compared.
func (s *mem) sameAs(tbl, start [][]byte) bool {
	np := max(len(tbl), len(start), numPages(len(s.flat)))
	for p := range np {
		want := pageAt(tbl, p)
		if !s.dirty.get(p) && samePage(want, pageAt(start, p)) {
			continue
		}
		if !equalPadded(s.pageBytes(p), want) {
			return false
		}
	}
	return true
}

// pageAt returns page p of a page table; past the table's end the page
// is all zero (nil).
func pageAt(tbl [][]byte, p int) []byte {
	if p < len(tbl) {
		return tbl[p]
	}
	return nil
}

// samePage reports whether two page-table entries are the same bytes in
// memory: one slice of one array, or both empty.
func samePage(a, b []byte) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// zeroPage supplies the zero padding equalPadded compares short pages
// against.
var zeroPage [pageSize]byte

// equalPadded reports whether two pages hold the same content, each read
// as zero past its end.
func equalPadded(a, b []byte) bool {
	if len(a) < len(b) {
		a, b = b, a
	}
	return bytes.Equal(a[:len(b)], b) && bytes.Equal(a[len(b):], zeroPage[:len(a)-len(b)])
}

// growFlat extends flat to at least end bytes (clamped to the segment
// length), preserving contents and zero-filling the extension. Spare
// capacity — machines are pooled across runs — is reused but must be
// re-zeroed: it holds a previous run's bytes.
func (s *mem) growFlat(end int) {
	if end <= len(s.flat) {
		return
	}
	c := 2 * len(s.flat)
	if c < end {
		c = end
	}
	if c < 4*pageSize {
		c = 4 * pageSize
	}
	if c > s.n {
		c = s.n
	}
	if c <= cap(s.flat) {
		old := len(s.flat)
		s.flat = s.flat[:c]
		clear(s.flat[old:])
		return
	}
	nf := make([]byte, c)
	copy(nf, s.flat)
	s.flat = nf
}

// load reads size bytes little-endian at off. The caller has bounds- and
// alignment-checked [off, off+size).
func (s *mem) load(off, size int) uint64 {
	b := s.flat[off:]
	switch size {
	case 8:
		return binary.LittleEndian.Uint64(b)
	case 4:
		return uint64(binary.LittleEndian.Uint32(b))
	case 2:
		return uint64(binary.LittleEndian.Uint16(b))
	default:
		return uint64(b[0])
	}
}

// store writes size bytes little-endian at off, dirtying the pages it
// touches. The caller has bounds- and alignment-checked the range.
func (s *mem) store(off, size int, v uint64) {
	if s.dirty != nil {
		s.dirty.set(pageOf(off))
		s.dirty.set(pageOf(off + size - 1))
	}
	b := s.flat[off:]
	switch size {
	case 8:
		binary.LittleEndian.PutUint64(b, v)
	case 4:
		binary.LittleEndian.PutUint32(b, uint32(v))
	case 2:
		binary.LittleEndian.PutUint16(b, uint16(v))
	default:
		b[0] = byte(v)
	}
}

// tracks reports whether a store at off is due tracking work: the
// segment tracks dirty pages and off's page is still clean, so the
// store must set its dirty bit. The flat store accessors inline it, and
// testing the bit on the uint64 offset directly costs them less of the
// inliner's budget than bitmap.get.
func (s *mem) tracks(off uint64) bool {
	return s.dirty != nil && s.dirty[off>>(pageShift+6)]&(1<<(off>>pageShift&63)) == 0
}

// pageDelta records the pages of one segment dirtied during a snapshot
// interval: ascending page indices and private copies of their contents.
// Clean pages are represented implicitly by the snapshot's base chain, so
// capture cost is proportional to the write set, not the segment size.
type pageDelta struct {
	idx   []int32
	pages [][]byte
}

// mergeDeltas returns the delta that patches what older patched and then
// what newer patched: every page of newer, and the pages of older that
// newer leaves alone. The pages are shared, not copied.
func mergeDeltas(older, newer pageDelta) pageDelta {
	n := len(older.idx) + len(newer.idx)
	d := pageDelta{idx: make([]int32, 0, n), pages: make([][]byte, 0, n)}
	i, j := 0, 0
	for i < len(older.idx) || j < len(newer.idx) {
		if j == len(newer.idx) || i < len(older.idx) && older.idx[i] < newer.idx[j] {
			d.idx = append(d.idx, older.idx[i])
			d.pages = append(d.pages, older.pages[i])
			i++
			continue
		}
		if i < len(older.idx) && older.idx[i] == newer.idx[j] {
			i++
		}
		d.idx = append(d.idx, newer.idx[j])
		d.pages = append(d.pages, newer.pages[j])
		j++
	}
	return d
}

// captureDelta copies the pages of [0, upTo) dirtied since the previous
// capture and clears the dirty map. Iteration walks the dirty bitmap
// wordwise, so the scan is O(pages/64) and the copying O(dirtied pages).
func (s *mem) captureDelta(upTo int) pageDelta {
	np := numPages(upTo)
	var d pageDelta
	for w := 0; w<<6 < np; w++ {
		bitsLeft := s.dirty[w]
		for bitsLeft != 0 {
			p := w<<6 + trailingZeros(bitsLeft)
			bitsLeft &= bitsLeft - 1
			if p >= np {
				break
			}
			lo := p << pageShift
			hi := lo + pageSize
			if hi > upTo {
				hi = upTo
			}
			d.idx = append(d.idx, int32(p))
			d.pages = append(d.pages, append([]byte(nil), s.flat[lo:hi]...))
		}
		s.dirty[w] = 0
	}
	return d
}

// pageTable slices an immutable flat image into a page table without
// copying. Used to seed capture sharing for fresh runs (the program's
// global image).
func pageTable(img []byte) [][]byte {
	pages := make([][]byte, numPages(len(img)))
	for p := range pages {
		lo := p << pageShift
		hi := lo + pageSize
		if hi > len(img) {
			hi = len(img)
		}
		pages[p] = img[lo:hi:hi]
	}
	return pages
}

// flattenInto materializes a page table into buf (grown if needed),
// returning the n-byte flat image. Reused buffers hold a previous run's
// bytes, so gaps the pages do not cover are explicitly zeroed.
func flattenInto(buf []byte, pages [][]byte, n int) []byte {
	if cap(buf) < n {
		buf = make([]byte, n)
	} else {
		buf = buf[:n]
	}
	for p := 0; p<<pageShift < n; p++ {
		lo := p << pageShift
		hi := lo + pageSize
		if hi > n {
			hi = n
		}
		var b []byte
		if p < len(pages) {
			b = pages[p]
		}
		k := copy(buf[lo:hi], b)
		clear(buf[lo+k : hi])
	}
	return buf
}
