/**
 * @file
 * Bump-allocator arena for the zero-copy codec paths (docs/perf.md,
 * "Arena-backed block buffers"). An Arena hands out monotonically
 * increasing slices of a few large chunks and frees nothing until
 * reset(), which rewinds every chunk for reuse without returning
 * memory to the OS — so a steady-state encode/decode batch performs
 * zero heap allocations after warm-up.
 *
 * It is a std::pmr::memory_resource, so pmr containers (EncodedBlock's
 * word vector) can live directly in it; deallocate is a no-op, which
 * makes destroying an arena-backed container after reset() safe (the
 * storage was already reclaimed wholesale).
 *
 * An Arena is single-threaded state: its owner resets it once the
 * blocks it holds are no longer needed.
 *
 * Determinism: allocation order is the codec's own deterministic
 * order, and no pointer value ever influences results (the D1/D2 lint
 * rules keep it that way), so arena placement cannot perturb outputs.
 */
#ifndef APPROXNOC_COMMON_ARENA_H
#define APPROXNOC_COMMON_ARENA_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <memory_resource>
#include <new>
#include <vector>

namespace approxnoc {

class Arena final : public std::pmr::memory_resource
{
  public:
    static constexpr std::size_t kDefaultChunkBytes = 64 * 1024;

    explicit Arena(std::size_t chunk_bytes = kDefaultChunkBytes)
        : chunk_bytes_(chunk_bytes)
    {
    }

    Arena(const Arena &) = delete;
    Arena &operator=(const Arena &) = delete;

    /**
     * Rewind every chunk for reuse. O(#chunks), frees nothing.
     * Everything previously allocated from this arena — raw slices and
     * pmr containers alike — is invalidated wholesale.
     */
    void
    reset()
    {
        cursor_chunk_ = 0;
        cursor_off_ = 0;
        bytes_live_ = 0;
        ++resets_;
    }

    /** Typed slice of @p n default-constructible Ts (uninitialized for
     * trivial Ts is avoided: value-initialized via placement-new would
     * cost a pass, so this returns raw storage suitably aligned — the
     * codec paths always write every element before reading). */
    template <typename T>
    T *
    alloc(std::size_t n)
    {
        return static_cast<T *>(do_allocate(n * sizeof(T), alignof(T)));
    }

    /** Bytes handed out since the last reset(). */
    std::size_t bytesLive() const { return bytes_live_; }
    /** High-water mark of bytes held across all chunks. */
    std::size_t bytesReserved() const { return bytes_reserved_; }
    std::uint64_t allocations() const { return allocations_; }
    std::uint64_t resets() const { return resets_; }

  protected:
    void *
    do_allocate(std::size_t bytes, std::size_t alignment) override
    {
        if (bytes == 0)
            bytes = 1;
        ++allocations_;
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
        std::size_t size = bytes > chunk_bytes_ ? bytes : chunk_bytes_;
        chunks_.push_back(Chunk{
            std::unique_ptr<std::byte[]>(new std::byte[size]), size});
        bytes_reserved_ += size;
        cursor_chunk_ = chunks_.size() - 1;
        cursor_off_ = bytes;
        return chunks_.back().data.get();
    }

    void
    do_deallocate(void *, std::size_t, std::size_t) override
    {
        // Bump allocator: individual frees are no-ops; reset() reclaims.
    }

    bool
    do_is_equal(const std::pmr::memory_resource &other) const noexcept override
    {
        return this == &other;
    }

  private:
    // Chunk storage comes from operator new[], so it is aligned for
    // any standard type; offset rounding handles the rest. Requests
    // over alignof(max_align_t) are out of scope for the codec paths.
    static std::size_t
    align_up(std::size_t v, std::size_t a)
    {
        return (v + a - 1) & ~(a - 1);
    }

    struct Chunk {
        std::unique_ptr<std::byte[]> data;
        std::size_t size;
    };

    std::size_t chunk_bytes_;
    std::vector<Chunk> chunks_;
    std::size_t cursor_chunk_ = 0;
    std::size_t cursor_off_ = 0;
    std::size_t bytes_live_ = 0;
    std::size_t bytes_reserved_ = 0;
    std::uint64_t allocations_ = 0;
    std::uint64_t resets_ = 0;
};

} // namespace approxnoc

#endif // APPROXNOC_COMMON_ARENA_H
