#include "proto/wire.hpp"

namespace griphon::proto {

namespace {
Error truncated() {
  return Error{ErrorCode::kInvalidArgument, "wire: truncated buffer"};
}
}  // namespace

Result<std::uint8_t> ByteReader::u8() {
  if (!have(1)) return truncated();
  return buf_[pos_++];
}

Result<std::uint16_t> ByteReader::u16() {
  if (!have(2)) return truncated();
  const auto hi = buf_[pos_];
  const auto lo = buf_[pos_ + 1];
  pos_ += 2;
  return static_cast<std::uint16_t>((hi << 8) | lo);
}

Result<std::uint32_t> ByteReader::u32() {
  if (!have(4)) return truncated();
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v = (v << 8) | buf_[pos_++];
  return v;
}

Result<std::uint64_t> ByteReader::u64() {
  if (!have(8)) return truncated();
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | buf_[pos_++];
  return v;
}

Result<std::int32_t> ByteReader::i32() {
  auto v = u32();
  if (!v.ok()) return v.error();
  return static_cast<std::int32_t>(v.value());
}

Result<std::int64_t> ByteReader::i64() {
  auto v = u64();
  if (!v.ok()) return v.error();
  return static_cast<std::int64_t>(v.value());
}

Result<double> ByteReader::f64() {
  auto v = u64();
  if (!v.ok()) return v.error();
  double d;
  const std::uint64_t bits = v.value();
  std::memcpy(&d, &bits, sizeof d);
  return d;
}

Result<bool> ByteReader::boolean() {
  auto v = u8();
  if (!v.ok()) return v.error();
  if (v.value() > 1)
    return Error{ErrorCode::kInvalidArgument, "wire: bad boolean"};
  return v.value() == 1;
}

Result<Bytes> ByteReader::raw(std::size_t n) {
  if (!have(n)) return truncated();
  const auto first = buf_.begin() + static_cast<std::ptrdiff_t>(pos_);
  pos_ += n;
  return Bytes(first, first + static_cast<std::ptrdiff_t>(n));
}

Result<std::string> ByteReader::str() {
  auto len = u16();
  if (!len.ok()) return len.error();
  if (!have(len.value())) return truncated();
  std::string s(reinterpret_cast<const char*>(buf_.data() + pos_),
                len.value());
  pos_ += len.value();
  return s;
}

}  // namespace griphon::proto
