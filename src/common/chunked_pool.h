/**
 * @file
 * An append-only pool of trivially copyable values in fixed-size
 * chunks. A chunk is allocated when the pool first needs it and is
 * neither moved nor freed while the pool lives. So appending never
 * copies what the pool holds, and a reference to a stored value stays
 * valid across every later append and across a move of the pool.
 *
 * A growing std::vector instead copies itself into a buffer twice the
 * size and frees the old one. On glibc, freeing a buffer that came
 * from mmap raises the dynamic mmap threshold, so later large buffers
 * come from the brk heap, where freed ones stay resident: that slack
 * was about a quarter of a replay grid's peak RSS (docs/perf.md,
 * *Chunked trace pools*).
 */
#ifndef APPROXNOC_COMMON_CHUNKED_POOL_H
#define APPROXNOC_COMMON_CHUNKED_POOL_H

#include <algorithm>
#include <bit>
#include <cstddef>
#include <iterator>
#include <memory>
#include <new>
#include <span>
#include <type_traits>
#include <vector>

#include "common/log.h"

namespace approxnoc {

/** Append-only storage of trivially copyable values in fixed chunks
 * that never move; see the file comment. */
template <typename T>
class ChunkedPool
{
    static_assert(std::is_trivially_copyable_v<T>);

  public:
    /** Below glibc's default mmap threshold (128 KiB), so chunks come
     * from the heap and freeing one never moves the threshold. */
    static constexpr std::size_t kChunkBytes = 64 * 1024;
    /** Values one chunk holds; a power of two, so a position splits
     * into chunk and slot with a shift and a mask. */
    static constexpr std::size_t kPerChunk = kChunkBytes / sizeof(T);
    static_assert(std::has_single_bit(kPerChunk));

    /** Positions in use, including any that append() skipped. */
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    const T &operator[](std::size_t i) const
    {
        return chunks_[i / kPerChunk]->at(i % kPerChunk);
    }
    const T &back() const { return (*this)[size_ - 1]; }

    void push_back(const T &v)
    {
        if (size_ % kPerChunk == 0)
            chunks_.push_back(std::make_unique_for_overwrite<Chunk>());
        ::new (chunks_.back()->slot(size_ % kPerChunk)) T(v);
        ++size_;
    }

    /**
     * Appends @p vs contiguously, inside one chunk: when the current
     * chunk lacks room, the positions left in it are skipped and a new
     * chunk starts. Returns the position of the first value, which
     * run() takes. Panics past kPerChunk values.
     */
    std::size_t append(std::span<const T> vs)
    {
        ANOC_ASSERT(vs.size() <= kPerChunk, "a run of ", vs.size(),
                    " values exceeds a chunk of ", kPerChunk);
        if (vs.empty())
            return size_;
        const std::size_t room = (kPerChunk - size_ % kPerChunk) % kPerChunk;
        if (room < vs.size()) {
            size_ += room;
            chunks_.push_back(std::make_unique_for_overwrite<Chunk>());
        }
        const std::size_t at = size_;
        std::uninitialized_copy(
            vs.begin(), vs.end(),
            static_cast<T *>(chunks_.back()->slot(at % kPerChunk)));
        size_ += vs.size();
        return at;
    }

    /** The @p n values append() stored from position @p at. */
    std::span<const T> run(std::size_t at, std::size_t n) const
    {
        if (n == 0)
            return {};
        return {&(*this)[at], n};
    }

    /** Reads positions in order; a pool with skipped positions (one
     * that append() filled) is read with run() instead. */
    class const_iterator
    {
      public:
        using iterator_category = std::forward_iterator_tag;
        using value_type = T;
        using difference_type = std::ptrdiff_t;
        using pointer = const T *;
        using reference = const T &;

        const_iterator() = default;
        const_iterator(const ChunkedPool *pool, std::size_t i)
            : pool_(pool), i_(i)
        {}
        reference operator*() const { return (*pool_)[i_]; }
        pointer operator->() const { return &(*pool_)[i_]; }
        const_iterator &operator++()
        {
            ++i_;
            return *this;
        }
        const_iterator operator++(int)
        {
            const_iterator old = *this;
            ++i_;
            return old;
        }
        bool operator==(const const_iterator &o) const { return i_ == o.i_; }

      private:
        const ChunkedPool *pool_ = nullptr;
        std::size_t i_ = 0;
    };
    const_iterator begin() const { return {this, 0}; }
    const_iterator end() const { return {this, size_}; }

  private:
    /** Uninitialized storage; make_unique_for_overwrite leaves the
     * pages untouched until a value is written. */
    struct Chunk {
        alignas(T) std::byte bytes[kPerChunk * sizeof(T)];
        void *slot(std::size_t k) { return bytes + k * sizeof(T); }
        const T &at(std::size_t k) const
        {
            return *std::launder(
                reinterpret_cast<const T *>(bytes + k * sizeof(T)));
        }
    };

    std::vector<std::unique_ptr<Chunk>> chunks_;
    std::size_t size_ = 0;
};

} // namespace approxnoc

#endif // APPROXNOC_COMMON_CHUNKED_POOL_H
