#ifndef CTRLSHED_NET_BYTE_BUFFER_H_
#define CTRLSHED_NET_BYTE_BUFFER_H_

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <string_view>
#include <vector>

namespace ctrlshed {

/// Reassembly buffer for a TCP byte stream: recv() straight into
/// WriteSpace and Commit what arrived; parse unread() and Consume what was
/// used. The consumed prefix is compacted away once per write, not once
/// per message, so a reused buffer allocates nothing once it has grown to
/// the stream's largest message.
class ByteBuffer {
 public:
  /// Room for at least `n` more bytes after the unread ones; Commit(k),
  /// k <= n, then appends the k bytes written there. The pointer is valid
  /// until the next WriteSpace.
  char* WriteSpace(size_t n) {
    if (head_ > 0) {
      std::memmove(buf_.data(), buf_.data() + head_, end_ - head_);
      end_ -= head_;
      head_ = 0;
    }
    // Growing to twice the request keeps a partial message left over from
    // one write from forcing a reallocation on the next write of the same
    // size.
    if (buf_.size() - end_ < n) {
      buf_.resize(std::max(2 * buf_.size(), end_ + 2 * n));
    }
    return buf_.data() + end_;
  }
  void Commit(size_t n) { end_ += n; }

  std::string_view unread() const {
    return {buf_.data() + head_, end_ - head_};
  }
  void Consume(size_t n) {
    head_ += n;
    if (head_ == end_) head_ = end_ = 0;  // drained: nothing to compact
  }
  size_t size() const { return end_ - head_; }

 private:
  std::vector<char> buf_;  // unread bytes are [head_, end_)
  size_t head_ = 0;
  size_t end_ = 0;
};

}  // namespace ctrlshed

#endif  // CTRLSHED_NET_BYTE_BUFFER_H_
