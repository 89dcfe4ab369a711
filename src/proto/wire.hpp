// Byte-level wire encoding.
//
// The GRIPhoN controller talks to element managers over a binary protocol.
// All integers are big-endian (network order); strings are u16
// length-prefixed UTF-8. ByteReader is bounds-checked and never reads past
// the buffer — malformed frames produce errors, not UB.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/result.hpp"

namespace griphon::proto {

using Bytes = std::vector<std::uint8_t>;

class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) {
    u8(static_cast<std::uint8_t>(v >> 8));
    u8(static_cast<std::uint8_t>(v));
  }
  void u32(std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v >> 16));
    u16(static_cast<std::uint16_t>(v));
  }
  void u64(std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v >> 32));
    u32(static_cast<std::uint32_t>(v));
  }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void str(const std::string& s) {
    u16(static_cast<std::uint16_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }
  void raw(const Bytes& b) { buf_.insert(buf_.end(), b.begin(), b.end()); }
  /// Overwrite the four bytes at `at` (already written) with `v`.
  void patch_u32(std::size_t at, std::uint32_t v) {
    for (int i = 3; i >= 0; --i, v >>= 8)
      buf_.at(at + static_cast<std::size_t>(i)) =
          static_cast<std::uint8_t>(v);
  }
  void reserve(std::size_t n) { buf_.reserve(n); }

  [[nodiscard]] const Bytes& bytes() const noexcept { return buf_; }
  [[nodiscard]] Bytes take() noexcept { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }

 private:
  Bytes buf_;
};

class ByteReader {
 public:
  explicit ByteReader(const Bytes& buf) : buf_(buf) {}

  [[nodiscard]] Result<std::uint8_t> u8();
  [[nodiscard]] Result<std::uint16_t> u16();
  [[nodiscard]] Result<std::uint32_t> u32();
  [[nodiscard]] Result<std::uint64_t> u64();
  [[nodiscard]] Result<std::int32_t> i32();
  [[nodiscard]] Result<std::int64_t> i64();
  [[nodiscard]] Result<double> f64();
  [[nodiscard]] Result<bool> boolean();
  [[nodiscard]] Result<std::string> str();
  /// The next `n` bytes, copied out.
  [[nodiscard]] Result<Bytes> raw(std::size_t n);

  [[nodiscard]] std::size_t remaining() const noexcept {
    return buf_.size() - pos_;
  }
  [[nodiscard]] bool exhausted() const noexcept { return remaining() == 0; }

 private:
  [[nodiscard]] bool have(std::size_t n) const noexcept {
    return remaining() >= n;
  }

  const Bytes& buf_;
  std::size_t pos_ = 0;
};

}  // namespace griphon::proto
