package nvmm

import (
	"encoding/binary"
	"fmt"
	"io"
	"runtime"
)

// imageMagic identifies a serialized device image.
const imageMagic = 0x48694e46532d494d // "HiNFS-IM"

// Save serializes the device's current (cached) image to w, so an
// emulated NVMM can outlive the process — the moral equivalent of the
// DIMM retaining its contents. Callers should quiesce and flush (unmount)
// first; Save captures the byte image, not the pending/durable split.
func (d *Device) Save(w io.Writer) error {
	var hdr [16]byte
	binary.LittleEndian.PutUint64(hdr[0:], imageMagic)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(d.cfg.Size))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("nvmm: save header: %w", err)
	}
	_, err := w.Write(d.data)
	runtime.KeepAlive(d) // d.data is unmapped once d is unreachable
	if err != nil {
		return fmt.Errorf("nvmm: save image: %w", err)
	}
	return nil
}

// Load creates a device from a serialized image, applying cfg's
// performance model. cfg.Size must be zero (inferred from the image) or
// match it.
func Load(r io.Reader, cfg Config) (*Device, error) {
	var hdr [16]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("nvmm: load header: %w", err)
	}
	if binary.LittleEndian.Uint64(hdr[0:]) != imageMagic {
		return nil, fmt.Errorf("nvmm: not a device image")
	}
	size := int64(binary.LittleEndian.Uint64(hdr[8:]))
	if cfg.Size != 0 && cfg.Size != size {
		return nil, fmt.Errorf("nvmm: image size %d != configured size %d", size, cfg.Size)
	}
	cfg.Size = size
	d, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if _, err := io.ReadFull(r, d.data); err != nil {
		return nil, fmt.Errorf("nvmm: load image: %w", err)
	}
	if cfg.TrackPersistence {
		copy(d.durable, d.data) // the loaded image is the durable state
	}
	return d, nil
}
