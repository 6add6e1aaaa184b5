/**
 * @file
 * BitWriter / BitReader — the sub-byte serialization layer under the
 * model-file v4 adaptive-width coefficient codec (tthresh-style
 * per-column bit widths, cf. Ballester-Ripoll et al.).
 *
 * Bit order is LSB-first within each byte: bit k of the stream lives
 * at bit (k & 7) of byte (k >> 3), and a multi-bit field's least
 * significant bit is written first. This matches the nibble order of
 * core::PackedCe (low nibble first), so a 4-bit field written at a
 * byte boundary lands exactly where packCe would put it.
 *
 * The writer never pads silently: alignToByte() is the only way bits
 * are skipped, and the reader's alignToByte() returns the pad bits it
 * consumed so a decoder can enforce zero padding (the model-file
 * canonical-encoding rule: two different byte streams must never
 * decode to the same value).
 *
 * Reads past the end of the buffer throw BitstreamError — a truncated
 * stream can never yield data.
 */

#ifndef SE_ENCODE_BITSTREAM_HH
#define SE_ENCODE_BITSTREAM_HH

#include <cstdint>
#include <stdexcept>
#include <vector>

namespace se {
namespace encode {

/** Thrown on any malformed bitstream operation (over-read, bad width,
 *  out-of-range value). Mirrors core::ModelFileError one layer down:
 *  decode either returns valid data or throws, never crashes. */
class BitstreamError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Append-only bit sink backed by a byte vector. */
class BitWriter
{
  public:
    /**
     * Append the low `width` bits of `value`, LSB first. width must be
     * in [0, 32] and value must fit in width bits (writeBits(v, 0)
     * requires v == 0 and appends nothing) — anything else throws
     * BitstreamError, because silently masking would corrupt the
     * stream instead of the call site that produced the bad value.
     */
    void writeBits(uint32_t value, int width);

    void writeBit(bool bit) { writeBits(bit ? 1u : 0u, 1); }

    /** Pad the current byte with zero bits (no-op when aligned). */
    void alignToByte();

    size_t bitsWritten() const { return bits_; }
    bool aligned() const { return (bits_ & 7) == 0; }

    /**
     * The serialized bytes. Must be byte-aligned (call alignToByte()
     * first) — handing out a buffer whose tail byte is still open
     * would let the caller concatenate streams mid-byte; throws
     * BitstreamError instead.
     */
    const std::vector<uint8_t> &bytes() const;

    /** bytes(), destructively (resets the writer to empty). */
    std::vector<uint8_t> take();

  private:
    std::vector<uint8_t> bytes_;
    size_t bits_ = 0;  ///< total bits written
};

/** Bounded bit source over caller-owned bytes (not copied). */
class BitReader
{
  public:
    BitReader(const uint8_t *data, size_t size)
        : data_(data), size_bits_(size * 8)
    {
    }

    /**
     * Read `width` bits (LSB first), width in [0, 32]. Throws
     * BitstreamError when fewer than `width` bits remain — a
     * truncated stream fails loudly at the exact read that crossed
     * the end, never returns fabricated zeros.
     */
    uint32_t readBits(int width);

    bool readBit() { return readBits(1) != 0; }

    /**
     * Skip to the next byte boundary and return the pad bits consumed
     * (as a value, LSB first; 0 when already aligned). Callers that
     * require canonical streams check the result is zero.
     */
    uint32_t alignToByte();

    size_t bitsConsumed() const { return pos_; }
    size_t bitsRemaining() const { return size_bits_ - pos_; }
    bool atEnd() const { return pos_ == size_bits_; }

  private:
    const uint8_t *data_;
    size_t size_bits_;
    size_t pos_ = 0;  ///< bits consumed
};

} // namespace encode
} // namespace se

#endif // SE_ENCODE_BITSTREAM_HH
