#pragma once
// Little-endian byte marshalling used at process boundaries: the frames
// worker processes of the process backend write (sim/transport.hpp) and
// the result blobs the experiment harness ships from worker processes
// back to the parent.  Deliberately tiny: an append-only writer over a
// caller-owned vector and a bounds-checked reader that throws instead of
// reading past the end — a truncated or corrupt buffer is a recoverable
// error at every call site, never UB.
//
// Doubles travel as their IEEE-754 bit pattern (bit_cast through u64), so
// a value decodes to the identical bits that were encoded — the property
// the byte-identical differential suites need.

#include <bit>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

namespace emcast::util {

/// Thrown by ByteReader on any read past the end of the buffer.
class ByteRangeError : public std::runtime_error {
 public:
  explicit ByteRangeError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Append-only little-endian writer over a caller-owned byte vector (the
/// caller keeps the vector warm across uses; the writer never shrinks it).
class ByteWriter {
 public:
  explicit ByteWriter(std::vector<std::uint8_t>& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v) { raw(&v, sizeof v); }
  void u32(std::uint32_t v) { raw(&v, sizeof v); }
  void u64(std::uint64_t v) { raw(&v, sizeof v); }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void bytes(const void* data, std::size_t n) { raw(data, n); }

  std::size_t size() const { return out_.size(); }

 private:
  void raw(const void* data, std::size_t n) {
    // Little-endian hosts only (everything we target); memcpy keeps the
    // store well-defined for any alignment.
    static_assert(std::endian::native == std::endian::little,
                  "byte format is little-endian");
    const auto* p = static_cast<const std::uint8_t*>(data);
    out_.insert(out_.end(), p, p + n);
  }

  std::vector<std::uint8_t>& out_;
};

/// Bounds-checked little-endian reader.  Every accessor throws
/// ByteRangeError on overrun; decode layers turn that into a frame
/// rejection (see sim/transport.hpp).
class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit ByteReader(const std::vector<std::uint8_t>& buf)
      : ByteReader(buf.data(), buf.size()) {}

  std::uint8_t u8() { return take<std::uint8_t>(); }
  std::uint16_t u16() { return take<std::uint16_t>(); }
  std::uint32_t u32() { return take<std::uint32_t>(); }
  std::uint64_t u64() { return take<std::uint64_t>(); }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() { return std::bit_cast<double>(u64()); }

  void bytes(void* out, std::size_t n) {
    check(n);
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
  }

  std::size_t remaining() const { return size_ - pos_; }
  bool done() const { return pos_ == size_; }

 private:
  template <typename T>
  T take() {
    static_assert(std::endian::native == std::endian::little,
                  "byte format is little-endian");
    check(sizeof(T));
    T v;
    std::memcpy(&v, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  void check(std::size_t n) const {
    if (size_ - pos_ < n) {
      throw ByteRangeError("ByteReader: truncated buffer");
    }
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace emcast::util
