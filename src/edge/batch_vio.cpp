#include "edge/batch_vio.hpp"

#include "foundation/rng.hpp"
#include "linalg/decomp.hpp"
#include "linalg/matrix.hpp"

#include <cstring>

namespace illixr {

namespace {

/** Pure per-item seed: a function of (client, seq) only. */
std::uint64_t
itemSeed(std::uint64_t client, std::uint64_t seq)
{
    std::uint64_t z = client * 0x9e3779b97f4a7c15ULL + seq + 1;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t
fnv1a(std::uint64_t h, std::uint64_t x)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (x >> (8 * i)) & 0xffULL;
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** One client's compressed MSCKF update; returns the dx digest. */
std::uint64_t
updateOne(const BatchVioItem &item, const BatchVioParams &p)
{
    Rng rng(itemSeed(item.client, item.seq));
    const std::size_t m = p.rows;
    const std::size_t n = p.state_dim;

    // Stacked feature Jacobian and residual for this client's window
    // (synthesized; a real deployment would deserialize them from the
    // request payload — the linear algebra below is the real thing).
    MatX h(m, n);
    VecX r(m);
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j)
            h(i, j) = rng.gaussian();
        r[i] = rng.gaussian(0.0, p.noise);
    }

    // Measurement compression: H = Q * Th, rn = Q^T r. The update
    // only needs the thin upper-triangular factor (MSCKF §update).
    HouseholderQR qr(h);
    const MatX th = qr.matrixR();          // n x n
    const VecX qtr = qr.applyQT(r);
    VecX rn(n);
    for (std::size_t i = 0; i < n; ++i)
        rn[i] = qtr[i];

    // EKF gain with an isotropic prior P = prior * I:
    //   S  = Th P Th^T + noise^2 I
    //   dx = P Th^T S^{-1} rn
    MatX s = th.timesTranspose(th) * p.prior;
    for (std::size_t i = 0; i < n; ++i)
        s(i, i) += p.noise * p.noise;
    const Cholesky chol(s);
    if (!chol.ok())
        return fnv1a(0xcbf29ce484222325ULL, itemSeed(item.client, item.seq));
    const VecX y = chol.solve(rn);
    VecX dx(n);
    for (std::size_t i = 0; i < n; ++i) {
        double acc = 0.0;
        for (std::size_t k = 0; k < n; ++k)
            acc += th(k, i) * y[k];
        dx[i] = p.prior * acc;
    }

    std::uint64_t digest = 0xcbf29ce484222325ULL;
    for (std::size_t i = 0; i < n; ++i) {
        std::uint64_t bits = 0;
        static_assert(sizeof(double) == sizeof(std::uint64_t));
        std::memcpy(&bits, &dx[i], sizeof(bits));
        digest = fnv1a(digest, bits);
    }
    return digest;
}

} // namespace

std::vector<std::uint64_t>
fusedMsckfUpdate(const std::vector<BatchVioItem> &batch,
                 const BatchVioParams &params)
{
    std::vector<std::uint64_t> digests;
    digests.reserve(batch.size());
    for (const BatchVioItem &item : batch)
        digests.push_back(updateOne(item, params));
    return digests;
}

double
fusedUpdateFlops(const BatchVioParams &p)
{
    const double m = static_cast<double>(p.rows);
    const double n = static_cast<double>(p.state_dim);
    // QR: 2mn^2 - 2n^3/3; S build: n^3; Cholesky: n^3/3; solves: 2n^2.
    return 2.0 * m * n * n - 2.0 * n * n * n / 3.0 + n * n * n +
           n * n * n / 3.0 + 2.0 * n * n;
}

} // namespace illixr
