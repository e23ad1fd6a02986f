/**
 * @file
 * Flat circular FIFO for replay hot paths.
 *
 * The register-file replay's pending-release window and the
 * pipeline's ROB are small bounded queues that a std::deque services
 * with chunked heap allocations and a double-indirect access path.
 * These queues are touched once or more per simulated cycle, so the
 * allocator traffic and the map indirection show up directly in the
 * replay benchmarks.  RingQueue
 * stores elements in one contiguous power-of-two array indexed with
 * a mask; the array grows geometrically (amortised O(1) push) and is
 * never shrunk, so a driver that is reused across traces performs no
 * steady-state allocation at all.
 */

#ifndef PENELOPE_COMMON_RING_HH
#define PENELOPE_COMMON_RING_HH

#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

namespace penelope {

/**
 * Contiguous circular FIFO with amortised-O(1) push_back/pop_front
 * and O(1) front-relative indexing.
 */
template <class T>
class RingQueue
{
  public:
    RingQueue() = default;

    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }

    T &
    front()
    {
        assert(size_ > 0);
        return buf_[head_];
    }

    const T &
    front() const
    {
        assert(size_ > 0);
        return buf_[head_];
    }

    /** @p i counts from the front (0 = oldest element). */
    T &
    operator[](std::size_t i)
    {
        assert(i < size_);
        return buf_[(head_ + i) & mask_];
    }

    const T &
    operator[](std::size_t i) const
    {
        assert(i < size_);
        return buf_[(head_ + i) & mask_];
    }

    void
    push_back(T value)
    {
        if (size_ == buf_.size())
            grow();
        buf_[(head_ + size_) & mask_] = std::move(value);
        ++size_;
    }

    void
    pop_front()
    {
        assert(size_ > 0);
        head_ = (head_ + 1) & mask_;
        --size_;
    }

  private:
    void
    grow()
    {
        const std::size_t cap =
            buf_.empty() ? kInitialCapacity : buf_.size() * 2;
        std::vector<T> next(cap);
        for (std::size_t i = 0; i < size_; ++i)
            next[i] = std::move(buf_[(head_ + i) & mask_]);
        buf_ = std::move(next);
        head_ = 0;
        mask_ = cap - 1;
    }

    static constexpr std::size_t kInitialCapacity = 16;

    std::vector<T> buf_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
    std::size_t mask_ = 0;
};

} // namespace penelope

#endif // PENELOPE_COMMON_RING_HH
