// Checksums of stored bytes. Crc32c (Castagnoli) guards every database page
// (columnar/chunk_serde) and both sums of a positional-map sidecar
// (format/posmap_serde): with SCANRAW_SIMD on an x86-64 host that has
// SSE4.2 it folds eight bytes per `crc32` instruction (runtime dispatch,
// like PARSE's SSE4.1 kernel), which keeps a page's integrity check near
// page-cache read speed. Crc32cPortable is the table-driven fallback and
// returns the same values; it is the only path of SCANRAW_SIMD=OFF builds.
//
// Fnv1aHash is not a page checksum: it is the KMV sketch's string hash
// (db/sketches) and the BAM-like block checksum (genomics/bam_like), whose
// byte-at-a-time decode cost stands in for BAM decompression in Table 1.
#ifndef SCANRAW_COMMON_CHECKSUM_H_
#define SCANRAW_COMMON_CHECKSUM_H_

#include <cstdint>
#include <string_view>

namespace scanraw {

// CRC-32C (iSCSI polynomial, reflected, initial and final XOR 0xFFFFFFFF):
// Crc32c("123456789") == 0xE3069283.
uint32_t Crc32c(std::string_view data);
uint32_t Crc32cPortable(std::string_view data);

// FNV-1a 64-bit.
uint64_t Fnv1aHash(std::string_view data);

}  // namespace scanraw

#endif  // SCANRAW_COMMON_CHECKSUM_H_
