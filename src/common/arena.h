/**
 * @file
 * Bump-allocator arena backing the DecodedSpan views that CodecSystem's
 * arena forwarder returns. An Arena hands out monotonically increasing
 * slices of a few large chunks and frees nothing until reset(), which
 * rewinds every chunk for reuse without returning memory to the OS.
 *
 * An Arena is single-threaded state: its owner resets it once the
 * views it backs are no longer needed.
 *
 * Determinism: no pointer value ever influences results (the D1/D2
 * lint rules keep it that way), so arena placement cannot perturb
 * outputs.
 */
#ifndef APPROXNOC_COMMON_ARENA_H
#define APPROXNOC_COMMON_ARENA_H

#include <cstddef>
#include <memory>
#include <vector>

namespace approxnoc {

class Arena
{
  public:
    static constexpr std::size_t kChunkBytes = 64 * 1024;

    Arena() = default;
    Arena(const Arena &) = delete;
    Arena &operator=(const Arena &) = delete;

    /**
     * Rewind every chunk for reuse. O(#chunks), frees nothing.
     * Everything previously allocated from this arena is invalidated
     * wholesale.
     */
    void
    reset()
    {
        cursor_chunk_ = 0;
        cursor_off_ = 0;
        bytes_live_ = 0;
    }

    /** Uninitialized, suitably aligned storage for @p n trivial Ts; the
     * caller writes every element before reading it. */
    template <typename T>
    T *
    alloc(std::size_t n)
    {
        return static_cast<T *>(allocate(n * sizeof(T), alignof(T)));
    }

    /** Bytes handed out since the last reset(). */
    std::size_t bytesLive() const { return bytes_live_; }
    /** High-water mark of bytes held across all chunks. */
    std::size_t bytesReserved() const { return bytes_reserved_; }

  private:
    void *
    allocate(std::size_t bytes, std::size_t alignment)
    {
        if (bytes == 0)
            bytes = 1;
        bytes_live_ += bytes;
        while (cursor_chunk_ < chunks_.size()) {
            Chunk &c = chunks_[cursor_chunk_];
            std::size_t off = align_up(cursor_off_, alignment);
            if (off + bytes <= c.size) {
                cursor_off_ = off + bytes;
                return c.data.get() + off;
            }
            ++cursor_chunk_;
            cursor_off_ = 0;
        }
        // Oversize requests get their own chunk so one huge block can't
        // force every later chunk to that size.
        std::size_t size = bytes > kChunkBytes ? bytes : kChunkBytes;
        chunks_.push_back(Chunk{
            std::unique_ptr<std::byte[]>(new std::byte[size]), size});
        bytes_reserved_ += size;
        cursor_chunk_ = chunks_.size() - 1;
        cursor_off_ = bytes;
        return chunks_.back().data.get();
    }

    // Chunk storage comes from operator new[], so it is aligned for
    // any standard type; offset rounding handles the rest.
    static std::size_t
    align_up(std::size_t v, std::size_t a)
    {
        return (v + a - 1) & ~(a - 1);
    }

    struct Chunk {
        std::unique_ptr<std::byte[]> data;
        std::size_t size;
    };

    std::vector<Chunk> chunks_;
    std::size_t cursor_chunk_ = 0;
    std::size_t cursor_off_ = 0;
    std::size_t bytes_live_ = 0;
    std::size_t bytes_reserved_ = 0;
};

} // namespace approxnoc

#endif // APPROXNOC_COMMON_ARENA_H
