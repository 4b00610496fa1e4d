/**
 * @file
 * Deterministic checkpoint/restore of the simulated device (DESIGN.md
 * section 13).
 *
 * A checkpoint image is a versioned binary container:
 *
 *     magic "cheri-simt-ckpt-v1" | u32 version
 *     repeated sections: [u32 id][u64 payload len][u32 payload CRC-32]
 *                        [payload bytes]
 *
 * The Header section carries the SmConfig hash and the kernel identity
 * (KernelCache fingerprint key), so a restore onto a mismatched device
 * or kernel is refused with a structured error instead of silently
 * producing undefined behaviour. Every other section is the serialized
 * state of one component: the base DRAM (sparse by 4 KiB page), each
 * SM's complete launch state, and each SM's copy-on-write MemShard
 * overlay (mid-epoch snapshots).
 *
 * Snapshots are taken at warp-instruction boundaries (the scheduler
 * never pauses mid-instruction; see Sm::runUntil), so a restored run is
 * bit-identical -- cycles, stats, memory and tag contents, traps -- to
 * an uninterrupted one across SM counts, and under either execute
 * engine whichever engine saved the image.
 *
 * The per-component saveState/loadState member functions declared in
 * sm.hpp / mem.hpp / memsys.hpp / regfile.hpp / scratchpad.hpp /
 * faultinject.hpp are all defined in checkpoint.cpp, keeping the
 * serialization format in one translation unit.
 */

#ifndef CHERI_SIMT_SIMT_CHECKPOINT_HPP_
#define CHERI_SIMT_SIMT_CHECKPOINT_HPP_

#include <cstdint>
#include <string>
#include <vector>

#include "simt/config.hpp"
#include "support/serialize.hpp"

namespace simt
{
namespace ckpt
{

/** Image magic; the trailing version suffix is the format generation. */
inline constexpr char kMagic[] = "cheri-simt-ckpt-v1";
inline constexpr size_t kMagicLen = sizeof(kMagic) - 1;
inline constexpr uint32_t kVersion = 2;

/** Section identifiers. */
enum SectionId : uint32_t
{
    kSectionHeader = 1,     ///< config hash + kernel identity + geometry
    kSectionBaseMem = 2,    ///< device base DRAM (sparse pages)
    kSectionSmState = 3,    ///< one SM's launch state (per SM, in order)
    kSectionShardState = 4, ///< one SM's COW overlay (per SM, in order)
};

/** Structured restore outcome: ok, or a refusal with a reason. */
struct Error
{
    bool ok = true;
    std::string message;

    explicit operator bool() const { return ok; }

    static Error
    failure(std::string m)
    {
        Error e;
        e.ok = false;
        e.message = std::move(m);
        return e;
    }
};

/**
 * FNV-1a hash over every SmConfig field that affects architectural
 * behaviour (all of them but the host engine switch hostFastPath,
 * fault plan included). Two configs with equal hashes produce
 * bit-identical executions from equal state.
 */
uint64_t configHash(const SmConfig &cfg);

/** The fixed contents of the Header section. */
struct Header
{
    uint64_t configHash = 0;
    std::string kernelKey; ///< "name|fingerprint" (KernelCache identity)
    uint32_t numSms = 0;
    uint32_t warpsPerBlock = 0;
    uint32_t memoryFaults = 0; ///< memory-site faults already applied
    uint32_t heapNext = 0;     ///< device heap watermark at snapshot
};

void writeHeader(support::ByteWriter &w, const Header &h);
bool readHeader(support::ByteReader &r, Header &h);

/** Append one framed section (id, length, CRC-32, payload) to @p image. */
void writeSection(support::ByteWriter &image, uint32_t id,
                  const std::vector<uint8_t> &payload);

/** One parsed section of an image. */
struct Section
{
    uint32_t id = 0;
    std::vector<uint8_t> payload;
};

/**
 * Parse and validate a checkpoint image: magic, version, section
 * framing and per-section CRC-32. Returns Error::failure on any
 * mismatch (truncation, corruption, wrong version) without touching
 * simulator state.
 */
Error readImage(const std::vector<uint8_t> &image,
                std::vector<Section> &out);

} // namespace ckpt
} // namespace simt

#endif // CHERI_SIMT_SIMT_CHECKPOINT_HPP_
