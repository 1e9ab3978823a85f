/**
 * @file
 * Batched MSCKF serving: the fused measurement-update kernel at the
 * heart of the edge server.
 *
 * A batch is a set of same-window requests from distinct clients.
 * Each request's update — measurement compression (Householder QR)
 * followed by the EKF gain solve (Cholesky) — is independent of every
 * other client's, so the server runs the whole batch in one call.
 * That is what makes serving sub-linear in client count: the
 * per-batch dispatch overhead (scheduling, state page-in) is paid once
 * per batch instead of once per client, and the per-client marginal
 * cost is just the fused linear algebra.
 *
 * Determinism contract: each item's inputs are a pure function of
 * (client key, sequence number) — synthesized from a seeded Rng — and
 * each item is computed on its own, so the returned digests are
 * independent of batch composition. The digest of an item never
 * changes because of who else rode in the batch.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace illixr {

/** One request's slot in a fused batch update. */
struct BatchVioItem
{
    std::uint64_t client = 0; ///< Stable client key.
    std::uint64_t seq = 0;    ///< Per-client sequence number.
};

/** Shape of the per-client MSCKF update the server fuses. */
struct BatchVioParams
{
    /** Error-state dimension (15 IMU + 6 per clone; 3 clones). */
    std::size_t state_dim = 33;
    /** Stacked measurement rows after nullspace projection. */
    std::size_t rows = 36;
    /** Prior covariance scale (P = prior * I). */
    double prior = 0.01;
    /** Measurement noise stddev (pixels, normalized). */
    double noise = 0.05;
};

/**
 * Run the fused measurement update for every item of @p batch, in
 * order. @return one digest per item (same
 * order): an FNV-1a hash over the bit patterns of the state
 * correction, the byte-identity surface of the edge determinism
 * tests.
 */
std::vector<std::uint64_t>
fusedMsckfUpdate(const std::vector<BatchVioItem> &batch,
                 const BatchVioParams &params);

/**
 * Analytic flop count of one item's update (QR + gain solve), used by
 * the server's modeled per-request marginal cost.
 */
double fusedUpdateFlops(const BatchVioParams &params);

} // namespace illixr
