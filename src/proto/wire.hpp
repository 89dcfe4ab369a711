// Byte-level wire encoding.
//
// The GRIPhoN controller talks to element managers over a binary protocol.
// All integers are big-endian (network order); strings are u16
// length-prefixed UTF-8. ByteReader is bounds-checked and never reads past
// the buffer — malformed frames produce errors, not UB.
#pragma once

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/result.hpp"

namespace griphon::proto {

using Bytes = std::vector<std::uint8_t>;

class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { put_be(v); }
  void u32(std::uint32_t v) { put_be(v); }
  void u64(std::uint64_t v) { put_be(v); }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void boolean(bool v) { u8(v ? 1 : 0); }
  /// Throws std::length_error past kMaxString bytes: the u16 length
  /// prefix cannot say more, and a truncated one would desync the frame.
  void str(const std::string& s) {
    if (s.size() > kMaxString)
      throw std::length_error("wire: string of " + std::to_string(s.size()) +
                              " bytes exceeds the u16 length prefix");
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

  /// Longest string str() can frame.
  static constexpr std::size_t kMaxString = 0xFFFF;

 private:
  /// Grow the buffer once and store `v` big-endian.
  template <typename T>
  void put_be(T v) {
    const std::size_t at = buf_.size();
    buf_.resize(at + sizeof v);
    for (std::size_t i = sizeof v; i-- > 0;) {
      buf_[at + i] = static_cast<std::uint8_t>(v);
      v = static_cast<T>(v >> 8);
    }
  }

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
