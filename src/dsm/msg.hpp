// Control-message layer of the DSM, built on MultiEdge remote writes with
// completion notifications — the way GeNIMA used its network interface's
// remote-deposit operations.
//
// Each ordered node pair (s -> d) owns a byte ring in d's shared-metadata
// area. A message is one remote write into the ring (never wrapping across
// the ring end) flagged kOpFlagNotify; the receiver's service fiber consumes
// notifications and decodes messages straight out of its memory.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/api.hpp"

namespace multiedge::dsm {

enum class MsgType : std::uint16_t {
  kLockReq = 1,
  kLockGrant = 2,
  kLockRelease = 3,
  kBarrierArrive = 4,
  kBarrierRelease = 5,
};

/// One write-notice section: pages dirtied by `writer` during an interval.
struct NoticeSection {
  std::uint16_t writer = 0;
  std::vector<std::uint32_t> pages;
};

struct Message {
  MsgType type = MsgType::kLockReq;
  std::uint16_t src = 0;
  std::uint32_t id = 0;     // lock id or barrier id
  std::uint32_t epoch = 0;  // barrier generation
  std::vector<NoticeSection> notices;

  std::vector<std::byte> encode() const;
  static bool decode(std::span<const std::byte> buf, Message& out);
};

/// Sender-side cursor for one peer's ring.
class MailboxWriter {
 public:
  MailboxWriter() = default;
  MailboxWriter(std::uint64_t ring_base, std::size_t ring_bytes)
      : base_(ring_base), cap_(ring_bytes) {}

  /// Pick the destination VA for a message of `len` bytes and advance.
  std::uint64_t place(std::size_t len) {
    if (tail_ + len > cap_) tail_ = 0;  // never wrap a message across the end
    const std::uint64_t va = base_ + tail_;
    tail_ += len;
    return va;
  }

 private:
  std::uint64_t base_ = 0;
  std::size_t cap_ = 0;
  std::uint64_t tail_ = 0;
};

}  // namespace multiedge::dsm
