#include "slam/msckf.hpp"

#include "linalg/decomp.hpp"

#include <algorithm>
#include <cmath>

namespace illixr {

namespace {

/** Copy a Mat3 into a MatX block. */
void
setBlock3(MatX &m, std::size_t r, std::size_t c, const Mat3 &b)
{
    for (int i = 0; i < 3; ++i)
        for (int j = 0; j < 3; ++j)
            m(r + i, c + j) = b(i, j);
}

Mat3
identity3Scaled(double s)
{
    Mat3 m = Mat3::identity();
    return m * s;
}

} // namespace

MsckfFilter::MsckfFilter(const MsckfParams &params, const CameraRig &rig)
    : params_(params), rig_(rig)
{
}

void
MsckfFilter::initialize(const ImuState &state)
{
    state_ = state;
    clones_.clear();
    slamFeatures_.clear();
    pendingTracks_.clear();
    cov_ = MatX::zero(imuDim(), imuDim());
    auto sq = [](double v) { return v * v; };
    for (int i = 0; i < 3; ++i) {
        cov_(0 + i, 0 + i) = sq(params_.init_attitude_sigma);
        cov_(3 + i, 3 + i) = sq(params_.init_bias_gyro_sigma);
        cov_(6 + i, 6 + i) = sq(params_.init_velocity_sigma);
        cov_(9 + i, 9 + i) = sq(params_.init_bias_accel_sigma);
        cov_(12 + i, 12 + i) = sq(params_.init_position_sigma);
    }
    initialized_ = true;
    hasLastImu_ = false;
    imuBuffer_.clear();
}

void
MsckfFilter::addImu(const ImuSample &sample)
{
    imuBuffer_.push_back(sample);
}

void
MsckfFilter::propagateCovariance(const Vec3 &w_hat, const Vec3 &a_hat,
                                 double dt)
{
    const Mat3 r_wb = state_.orientation.toMatrix();

    // First-order discrete transition for the 15-dim IMU error block.
    MatX phi = MatX::identity(15);
    const Mat3 neg_wx = Mat3::skew(w_hat) * -1.0;
    const Mat3 neg_r_ax = (r_wb * Mat3::skew(a_hat)) * -1.0;
    const Mat3 neg_r = r_wb * -1.0;
    // d(theta)/d(theta) = I - [w]x dt ; d(theta)/d(bg) = -I dt
    setBlock3(phi, 0, 0, Mat3::identity() + neg_wx * dt);
    setBlock3(phi, 0, 3, identity3Scaled(-dt));
    // d(v)/d(theta), d(v)/d(ba)
    setBlock3(phi, 6, 0, neg_r_ax * dt);
    setBlock3(phi, 6, 9, neg_r * dt);
    // d(p)/d(v)
    setBlock3(phi, 12, 6, identity3Scaled(dt));

    // Discrete process noise.
    auto sq = [](double v) { return v * v; };
    const double qg = sq(params_.imu_noise.gyro_noise_density);
    const double qwg = sq(params_.imu_noise.gyro_bias_walk);
    const double qa = sq(params_.imu_noise.accel_noise_density);
    const double qwa = sq(params_.imu_noise.accel_bias_walk);
    MatX qd = MatX::zero(15, 15);
    setBlock3(qd, 0, 0, identity3Scaled(qg * dt));
    setBlock3(qd, 3, 3, identity3Scaled(qwg * dt));
    // v noise enters through R na: R I R^T = I.
    setBlock3(qd, 6, 6, identity3Scaled(qa * dt));
    setBlock3(qd, 9, 9, identity3Scaled(qwa * dt));

    const std::size_t n = stateDim();
    // P_II = Phi P_II Phi^T + Qd
    const MatX p_ii = cov_.block(0, 0, 15, 15);
    cov_.setBlock(0, 0, phi * p_ii * phi.transpose() + qd);
    if (n > 15) {
        // P_IC = Phi P_IC ; P_CI = P_IC^T
        const MatX p_ic = cov_.block(0, 15, 15, n - 15);
        const MatX new_ic = phi * p_ic;
        cov_.setBlock(0, 15, new_ic);
        cov_.setBlock(15, 0, new_ic.transpose());
    }
    cov_.symmetrize();
}

void
MsckfFilter::propagateTo(TimePoint t)
{
    while (!imuBuffer_.empty() && imuBuffer_.front().time <= t) {
        const ImuSample s = imuBuffer_.front();
        imuBuffer_.pop_front();
        if (!hasLastImu_) {
            lastImu_ = s;
            hasLastImu_ = true;
            if (state_.time == 0)
                state_.time = s.time;
            continue;
        }
        const double dt = toSeconds(s.time - lastImu_.time);
        if (dt > 0.0) {
            const Vec3 w_hat =
                (lastImu_.angular_velocity + s.angular_velocity) * 0.5 -
                state_.gyro_bias;
            const Vec3 a_hat =
                (lastImu_.linear_acceleration + s.linear_acceleration) *
                    0.5 -
                state_.accel_bias;
            state_ = integrateRk4(state_, lastImu_.angular_velocity,
                                  lastImu_.linear_acceleration,
                                  s.angular_velocity,
                                  s.linear_acceleration, dt);
            propagateCovariance(w_hat, a_hat, dt);
        }
        lastImu_ = s;
    }
    state_.time = t;
}

void
MsckfFilter::augmentClone(TimePoint t)
{
    Clone c;
    c.time = t;
    c.orientation = state_.orientation;
    c.position = state_.position;

    const std::size_t n = stateDim();
    const std::size_t n_clones = clones_.size();
    const std::size_t insert_at = cloneOffset(n_clones); // Before SLAM.

    // J maps current errors to the new clone's errors.
    MatX j = MatX::zero(6, n);
    setBlock3(j, 0, 0, Mat3::identity());   // delta-theta.
    setBlock3(j, 3, 12, Mat3::identity());  // delta-p.

    const MatX jp = j * cov_;               // 6 x n
    const MatX corner = jp.timesTranspose(j); // 6 x 6

    // Grow covariance, inserting the 6 new rows/cols at insert_at so
    // the [imu | clones | slam] layout is preserved.
    MatX grown = MatX::zero(n + 6, n + 6);
    auto map_index = [&](std::size_t old_i) {
        return old_i < insert_at ? old_i : old_i + 6;
    };
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t k = 0; k < n; ++k)
            grown(map_index(i), map_index(k)) = cov_(i, k);
    for (std::size_t i = 0; i < 6; ++i) {
        for (std::size_t k = 0; k < n; ++k) {
            grown(insert_at + i, map_index(k)) = jp(i, k);
            grown(map_index(k), insert_at + i) = jp(i, k);
        }
        for (std::size_t k = 0; k < 6; ++k)
            grown(insert_at + i, insert_at + k) = corner(i, k);
    }
    cov_ = std::move(grown);
    clones_.push_back(c);
}

void
MsckfFilter::marginalizeOldestClone()
{
    if (clones_.empty())
        return;
    const TimePoint dead_time = clones_.front().time;
    const std::size_t off = cloneOffset(0);
    const std::size_t n = stateDim();

    MatX shrunk = MatX::zero(n - 6, n - 6);
    auto map_index = [&](std::size_t old_i) {
        return old_i < off ? old_i : old_i - 6;
    };
    for (std::size_t i = 0; i < n; ++i) {
        if (i >= off && i < off + 6)
            continue;
        for (std::size_t k = 0; k < n; ++k) {
            if (k >= off && k < off + 6)
                continue;
            shrunk(map_index(i), map_index(k)) = cov_(i, k);
        }
    }
    cov_ = std::move(shrunk);
    clones_.erase(clones_.begin());

    // Drop observations anchored to the marginalized clone.
    for (auto &[id, track] : pendingTracks_) {
        for (std::size_t i = 0; i < track.clone_times.size();) {
            if (track.clone_times[i] == dead_time) {
                track.clone_times.erase(track.clone_times.begin() + i);
                track.pixels.erase(track.pixels.begin() + i);
            } else {
                ++i;
            }
        }
    }
}

Pose
MsckfFilter::cloneWorldToCamera(std::size_t i) const
{
    const Clone &c = clones_[i];
    const Pose body_to_world(c.orientation, c.position);
    return rig_.body_to_camera * body_to_world.inverse();
}

std::optional<Vec3>
MsckfFilter::triangulateFeature(const TrackedFeature &feature) const
{
    // Collect the world->camera poses of the observing clones.
    std::vector<Pose> w2c;
    std::vector<Vec2> pixels;
    for (std::size_t i = 0; i < feature.clone_times.size(); ++i) {
        for (std::size_t ci = 0; ci < clones_.size(); ++ci) {
            if (clones_[ci].time == feature.clone_times[i]) {
                w2c.push_back(cloneWorldToCamera(ci));
                pixels.push_back(feature.pixels[i]);
                break;
            }
        }
    }
    if (w2c.size() < 2)
        return std::nullopt;

    // Initial guess: a point along the first observation ray at
    // mid-range depth.
    const Pose c2w = w2c.front().inverse();
    const Vec3 ray =
        c2w.orientation.rotate(rig_.intrinsics.unproject(pixels.front()));
    Vec3 f = c2w.position + ray * 4.0;

    // Gauss-Newton on the world-space point.
    const double fx = rig_.intrinsics.fx;
    const double fy = rig_.intrinsics.fy;
    for (int iter = 0; iter < 10; ++iter) {
        MatX jtj(3, 3);
        VecX jtr(3);
        double total_err = 0.0;
        for (std::size_t k = 0; k < w2c.size(); ++k) {
            const Vec3 pc = w2c[k].transform(f);
            if (pc.z < params_.min_depth)
                return std::nullopt;
            const Vec2 z_hat = rig_.intrinsics.project(pc);
            const Vec2 r = pixels[k] - z_hat;
            total_err += r.squaredNorm();
            // d z / d pc.
            const double iz = 1.0 / pc.z;
            double hproj[2][3] = {
                {fx * iz, 0.0, -fx * pc.x * iz * iz},
                {0.0, fy * iz, -fy * pc.y * iz * iz}};
            // d pc / d f = R_cw.
            const Mat3 r_cw = w2c[k].orientation.toMatrix();
            double jrow[2][3];
            for (int a = 0; a < 2; ++a)
                for (int b = 0; b < 3; ++b)
                    jrow[a][b] = hproj[a][0] * r_cw(0, b) +
                                 hproj[a][1] * r_cw(1, b) +
                                 hproj[a][2] * r_cw(2, b);
            const double rv[2] = {r.x, r.y};
            for (int a = 0; a < 2; ++a) {
                for (int b = 0; b < 3; ++b) {
                    jtr[b] += jrow[a][b] * rv[a];
                    for (int c = 0; c < 3; ++c)
                        jtj(b, c) += jrow[a][b] * jrow[a][c];
                }
            }
        }
        // Levenberg damping keeps poorly conditioned solves bounded.
        for (int d = 0; d < 3; ++d)
            jtj(d, d) += 1e-6;
        Cholesky chol(jtj);
        if (!chol.ok())
            return std::nullopt;
        const VecX delta = chol.solve(jtr);
        f += Vec3(delta[0], delta[1], delta[2]);
        if (delta.norm() < 1e-7)
            break;
        (void)total_err;
    }

    // Acceptance gates: depth bounds in every view and conditioning.
    double min_z = 1e18, max_reproj = 0.0;
    for (std::size_t k = 0; k < w2c.size(); ++k) {
        const Vec3 pc = w2c[k].transform(f);
        min_z = std::min(min_z, pc.z);
        if (pc.z < params_.min_depth || pc.z > params_.max_depth)
            return std::nullopt;
        const Vec2 err = pixels[k] - rig_.intrinsics.project(pc);
        max_reproj = std::max(max_reproj, err.norm());
    }
    if (max_reproj > 8.0 * params_.pixel_noise)
        return std::nullopt;
    return f;
}

double
MsckfFilter::chi2Threshold(std::size_t dof)
{
    // Wilson-Hilferty approximation of the 95th percentile.
    const double k = static_cast<double>(dof);
    const double z = 1.6449; // Phi^-1(0.95)
    const double t = 1.0 - 2.0 / (9.0 * k) + z * std::sqrt(2.0 / (9.0 * k));
    return k * t * t * t;
}

bool
MsckfFilter::buildMsckfMeasurement(const TrackedFeature &feature,
                                   MatX &h_out, VecX &r_out)
{
    // Triangulation, Jacobian construction, and the left-nullspace
    // projection form the feature-initialization task (Table VI:
    // "SVD; Gauss-Newton; Jacobian; nullspace projection; GEMM").
    ScopedTask init_timer(profile_, "feature_initialization");
    const auto f_opt = triangulateFeature(feature);
    if (!f_opt)
        return false;
    const Vec3 f = *f_opt;

    // Map observation times to live clone indices.
    std::vector<std::size_t> clone_idx;
    std::vector<Vec2> pixels;
    for (std::size_t i = 0; i < feature.clone_times.size(); ++i) {
        for (std::size_t ci = 0; ci < clones_.size(); ++ci) {
            if (clones_[ci].time == feature.clone_times[i]) {
                clone_idx.push_back(ci);
                pixels.push_back(feature.pixels[i]);
                break;
            }
        }
    }
    const std::size_t m = clone_idx.size();
    if (m < 2)
        return false;

    const std::size_t n = stateDim();
    MatX hx = MatX::zero(2 * m, n);
    MatX hf = MatX::zero(2 * m, 3);
    VecX r(2 * m);

    const double fx = rig_.intrinsics.fx;
    const double fy = rig_.intrinsics.fy;
    const Mat3 r_cb = rig_.body_to_camera.orientation.toMatrix();

    for (std::size_t k = 0; k < m; ++k) {
        const std::size_t ci = clone_idx[k];
        const Clone &c = clones_[ci];
        const Mat3 r_wb = c.orientation.toMatrix();
        const Mat3 r_bw = r_wb.transpose();
        const Vec3 p_body = r_bw * (f - c.position);
        const Vec3 p_cam = r_cb * p_body + rig_.body_to_camera.position;
        if (p_cam.z < params_.min_depth)
            return false;
        const Vec2 z_hat = rig_.intrinsics.project(p_cam);
        const Vec2 res = pixels[k] - z_hat;
        r[2 * k] = res.x;
        r[2 * k + 1] = res.y;

        const double iz = 1.0 / p_cam.z;
        const double hproj[2][3] = {
            {fx * iz, 0.0, -fx * p_cam.x * iz * iz},
            {0.0, fy * iz, -fy * p_cam.y * iz * iz}};

        // d p_cam/d dtheta = R_cb [p_body]x ; d p_cam/d dp = -R_cb R_bw
        // d p_cam/d f = R_cb R_bw.
        const Mat3 d_theta = r_cb * Mat3::skew(p_body);
        const Mat3 d_p = (r_cb * r_bw) * -1.0;
        const Mat3 d_f = r_cb * r_bw;

        const std::size_t off = cloneOffset(ci);
        for (int a = 0; a < 2; ++a) {
            for (int b = 0; b < 3; ++b) {
                double acc_t = 0.0, acc_p = 0.0, acc_f = 0.0;
                for (int c2 = 0; c2 < 3; ++c2) {
                    acc_t += hproj[a][c2] * d_theta(c2, b);
                    acc_p += hproj[a][c2] * d_p(c2, b);
                    acc_f += hproj[a][c2] * d_f(c2, b);
                }
                hx(2 * k + a, off + b) = acc_t;
                hx(2 * k + a, off + 3 + b) = acc_p;
                hf(2 * k + a, b) = acc_f;
            }
        }
    }

    // Left-nullspace projection removes the feature error.
    if (2 * m <= 3)
        return false;
    const MatX nt = leftNullspaceTranspose(hf);
    MatX h = nt * hx;
    VecX rp = nt * r;
    init_timer.finish();

    // Chi-squared gate (part of the MSCKF update task).
    ScopedTask gate_timer(profile_, "msckf_update");
    const MatX hp = h * cov_;
    MatX s = hp.timesTranspose(h);
    const double sigma2 = params_.pixel_noise * params_.pixel_noise;
    for (std::size_t i = 0; i < s.rows(); ++i)
        s(i, i) += sigma2;
    Cholesky chol(s);
    if (!chol.ok())
        return false;
    const VecX sinv_r = chol.solve(rp);
    const double gamma = rp.dot(sinv_r);
    if (gamma >
        params_.chi2_multiplier * chi2Threshold(h.rows()))
        return false;

    h_out = std::move(h);
    r_out = std::move(rp);
    return true;
}

void
MsckfFilter::applyUpdate(const MatX &h, const VecX &r, double sigma)
{
    MatX h_used = h;
    VecX r_used = r;
    const std::size_t n = stateDim();

    // QR measurement compression when over-determined.
    if (h.rows() > n) {
        HouseholderQR qr(h);
        const MatX full_r = qr.matrixR(); // n x n upper triangular.
        const VecX qtr = qr.applyQT(r);
        h_used = full_r.block(0, 0, n, n);
        r_used = qtr.segment(0, n);
    }

    const MatX pht = cov_.timesTranspose(h_used); // n x m
    MatX s = h_used * pht;                        // m x m
    const double sigma2 = sigma * sigma;
    for (std::size_t i = 0; i < s.rows(); ++i)
        s(i, i) += sigma2;
    Cholesky chol(s);
    if (!chol.ok())
        return;

    // K = P H^T S^-1  (solve S K^T = (P H^T)^T column-wise).
    const MatX kt = chol.solve(pht.transpose()); // m x n
    const MatX k = kt.transpose();               // n x m

    const VecX dx = k * r_used;
    injectCorrection(dx);

    // P <- P - K S K^T == P - K (P H^T)^T.
    cov_ -= k * pht.transpose();
    cov_.symmetrize();
    // Floor tiny negative diagonals arising from roundoff.
    for (std::size_t i = 0; i < cov_.rows(); ++i)
        cov_(i, i) = std::max(cov_(i, i), 1e-14);
    ++updateCount_;
}

void
MsckfFilter::injectCorrection(const VecX &dx)
{
    state_.orientation =
        (state_.orientation * Quat::exp(Vec3(dx[0], dx[1], dx[2])))
            .normalized();
    state_.gyro_bias += Vec3(dx[3], dx[4], dx[5]);
    state_.velocity += Vec3(dx[6], dx[7], dx[8]);
    state_.accel_bias += Vec3(dx[9], dx[10], dx[11]);
    state_.position += Vec3(dx[12], dx[13], dx[14]);

    for (std::size_t i = 0; i < clones_.size(); ++i) {
        const std::size_t off = cloneOffset(i);
        clones_[i].orientation =
            (clones_[i].orientation *
             Quat::exp(Vec3(dx[off], dx[off + 1], dx[off + 2])))
                .normalized();
        clones_[i].position +=
            Vec3(dx[off + 3], dx[off + 4], dx[off + 5]);
    }
    for (std::size_t i = 0; i < slamFeatures_.size(); ++i) {
        const std::size_t off = slamOffset(i);
        slamFeatures_[i].position +=
            Vec3(dx[off], dx[off + 1], dx[off + 2]);
    }
}

void
MsckfFilter::pruneSlamFeatures()
{
    for (std::size_t i = 0; i < slamFeatures_.size();) {
        if (slamFeatures_[i].missed_frames > 3) {
            const std::size_t off = slamOffset(i);
            const std::size_t n = stateDim();
            MatX shrunk = MatX::zero(n - 3, n - 3);
            auto map_index = [&](std::size_t old_i) {
                return old_i < off ? old_i : old_i - 3;
            };
            for (std::size_t a = 0; a < n; ++a) {
                if (a >= off && a < off + 3)
                    continue;
                for (std::size_t b = 0; b < n; ++b) {
                    if (b >= off && b < off + 3)
                        continue;
                    shrunk(map_index(a), map_index(b)) = cov_(a, b);
                }
            }
            cov_ = std::move(shrunk);
            slamFeatures_.erase(slamFeatures_.begin() + i);
        } else {
            ++i;
        }
    }
}

void
MsckfFilter::processFeatures(TimePoint frame_time,
                             const std::vector<FeatureObservation> &obs,
                             const std::vector<std::uint64_t> &lost)
{
    if (!initialized_)
        return;

    // --- Propagation (attributed to "other" like OpenVINS's misc). ---
    {
        ScopedTask timer(profile_, "other");
        propagateTo(frame_time);
        augmentClone(frame_time);
    }

    // Index SLAM features by id.
    std::map<std::uint64_t, std::size_t> slam_by_id;
    for (std::size_t i = 0; i < slamFeatures_.size(); ++i)
        slam_by_id[slamFeatures_[i].id] = i;

    // --- SLAM update: persistent features observed this frame. ---
    {
        ScopedTask timer(profile_, "slam_update");
        std::vector<std::pair<std::size_t, Vec2>> slam_obs;
        std::vector<bool> seen(slamFeatures_.size(), false);
        for (const auto &o : obs) {
            auto it = slam_by_id.find(o.feature_id);
            if (it != slam_by_id.end()) {
                slam_obs.emplace_back(it->second, o.pixel);
                seen[it->second] = true;
            }
        }
        for (std::size_t i = 0; i < slamFeatures_.size(); ++i) {
            if (!seen[i])
                ++slamFeatures_[i].missed_frames;
            else
                slamFeatures_[i].missed_frames = 0;
        }

        if (!slam_obs.empty() && !clones_.empty()) {
            const std::size_t ci = clones_.size() - 1; // Newest clone.
            const Clone &c = clones_[ci];
            const Mat3 r_wb = c.orientation.toMatrix();
            const Mat3 r_bw = r_wb.transpose();
            const Mat3 r_cb = rig_.body_to_camera.orientation.toMatrix();
            const double fx = rig_.intrinsics.fx;
            const double fy = rig_.intrinsics.fy;

            const std::size_t n = stateDim();
            std::vector<double> h_rows;
            std::vector<double> r_vals;
            std::size_t rows = 0;
            // One reusable Jacobian-row buffer instead of a fresh
            // vector per measurement row.
            std::vector<double> row_buf(n);
            double *row = row_buf.data();

            for (const auto &[fi, pixel] : slam_obs) {
                const Vec3 f = slamFeatures_[fi].position;
                const Vec3 p_body = r_bw * (f - c.position);
                const Vec3 p_cam =
                    r_cb * p_body + rig_.body_to_camera.position;
                if (p_cam.z < params_.min_depth)
                    continue;
                const Vec2 z_hat = rig_.intrinsics.project(p_cam);
                const Vec2 res = pixel - z_hat;
                // Cheap outlier gate before the full chi2 machinery.
                if (res.norm() > 12.0 * params_.pixel_noise)
                    continue;

                const double iz = 1.0 / p_cam.z;
                const double hproj[2][3] = {
                    {fx * iz, 0.0, -fx * p_cam.x * iz * iz},
                    {0.0, fy * iz, -fy * p_cam.y * iz * iz}};
                const Mat3 d_theta = r_cb * Mat3::skew(p_body);
                const Mat3 d_p = (r_cb * r_bw) * -1.0;
                const Mat3 d_f = r_cb * r_bw;
                const std::size_t coff = cloneOffset(ci);
                const std::size_t foff = slamOffset(fi);
                for (int a = 0; a < 2; ++a) {
                    std::fill(row, row + n, 0.0);
                    for (int b = 0; b < 3; ++b) {
                        double acc_t = 0.0, acc_p = 0.0, acc_f = 0.0;
                        for (int c2 = 0; c2 < 3; ++c2) {
                            acc_t += hproj[a][c2] * d_theta(c2, b);
                            acc_p += hproj[a][c2] * d_p(c2, b);
                            acc_f += hproj[a][c2] * d_f(c2, b);
                        }
                        row[coff + b] = acc_t;
                        row[coff + 3 + b] = acc_p;
                        row[foff + b] = acc_f;
                    }
                    h_rows.insert(h_rows.end(), row, row + n);
                    r_vals.push_back(a == 0 ? res.x : res.y);
                    ++rows;
                }
            }

            if (rows > 0) {
                MatX h(rows, n);
                VecX r(rows);
                for (std::size_t i = 0; i < rows; ++i) {
                    r[i] = r_vals[i];
                    for (std::size_t j = 0; j < n; ++j)
                        h(i, j) = h_rows[i * n + j];
                }
                applyUpdate(h, r, 2.0 * params_.pixel_noise);
            }
        }
    }

    // --- Track bookkeeping for non-SLAM features. ---
    for (const auto &o : obs) {
        if (slam_by_id.count(o.feature_id))
            continue;
        TrackedFeature &track = pendingTracks_[o.feature_id];
        track.clone_times.push_back(frame_time);
        track.pixels.push_back(o.pixel);
    }

    // --- MSCKF update: consume features whose tracks just ended. ---
    {
        std::vector<MatX> h_list;
        std::vector<VecX> r_list;
        std::size_t total_rows = 0;
        for (std::uint64_t id : lost) {
            auto it = pendingTracks_.find(id);
            if (it == pendingTracks_.end())
                continue;
            if (it->second.clone_times.size() >=
                params_.min_obs_for_update) {
                MatX h;
                VecX r;
                if (buildMsckfMeasurement(it->second, h, r)) {
                    total_rows += h.rows();
                    h_list.push_back(std::move(h));
                    r_list.push_back(std::move(r));
                }
            }
            pendingTracks_.erase(it);
        }
        if (total_rows > 0) {
            ScopedTask timer(profile_, "msckf_update");
            const std::size_t n = stateDim();
            MatX h(total_rows, n);
            VecX r(total_rows);
            std::size_t row = 0;
            for (std::size_t i = 0; i < h_list.size(); ++i) {
                h.setBlock(row, 0, h_list[i]);
                for (std::size_t k = 0; k < r_list[i].size(); ++k)
                    r[row + k] = r_list[i][k];
                row += h_list[i].rows();
            }
            applyUpdate(h, r, params_.pixel_noise);
        }
    }

    // --- Feature initialization: promote long tracks to SLAM. ---
    {
        ScopedTask timer(profile_, "feature_initialization");
        if (slamFeatures_.size() < params_.max_slam_features) {
            std::vector<std::uint64_t> promoted;
            for (auto &[id, track] : pendingTracks_) {
                if (slamFeatures_.size() >= params_.max_slam_features)
                    break;
                if (track.clone_times.size() < params_.min_obs_for_slam)
                    continue;
                const auto f = triangulateFeature(track);
                if (!f)
                    continue;
                SlamFeature sf;
                sf.id = id;
                sf.position = *f;
                slamFeatures_.push_back(sf);
                // Grow covariance with an (uncorrelated, inflated)
                // prior — a documented simplification of OpenVINS's
                // delayed initialization.
                const std::size_t n = stateDim(); // Includes new feature.
                MatX grown = MatX::zero(n, n);
                grown.setBlock(0, 0, cov_);
                const double s2 = params_.slam_feature_init_sigma *
                                  params_.slam_feature_init_sigma;
                for (int d = 0; d < 3; ++d)
                    grown(n - 3 + d, n - 3 + d) = s2;
                cov_ = std::move(grown);
                promoted.push_back(id);
            }
            for (std::uint64_t id : promoted)
                pendingTracks_.erase(id);
        }
    }

    // --- Marginalization: bound the window and the SLAM map. ---
    {
        ScopedTask timer(profile_, "marginalization");
        pruneSlamFeatures();
        while (clones_.size() > params_.max_clones)
            marginalizeOldestClone();
    }
}

Vec3
MsckfFilter::positionSigma() const
{
    if (cov_.rows() < 15)
        return Vec3(0, 0, 0);
    return {std::sqrt(cov_(12, 12)), std::sqrt(cov_(13, 13)),
            std::sqrt(cov_(14, 14))};
}

VioSystem::VioSystem(const MsckfParams &filter_params,
                     const TrackerParams &tracker_params,
                     const CameraRig &rig)
    : tracker_(tracker_params), filter_(filter_params, rig)
{
}

const ImuState &
VioSystem::processFrame(TimePoint time, const ImageF &image)
{
    const auto obs = tracker_.processFrame(image);
    filter_.processFeatures(time, obs, tracker_.lostTracks());
    return filter_.state();
}

const ImuState &
VioSystem::processFrame(TimePoint time,
                        std::shared_ptr<const ImageF> image)
{
    const auto obs = tracker_.processFrame(std::move(image));
    filter_.processFeatures(time, obs, tracker_.lostTracks());
    return filter_.state();
}

TaskProfile
VioSystem::combinedProfile() const
{
    TaskProfile combined;
    for (const auto &name : tracker_.profile().taskNames())
        combined.add(name, tracker_.profile().taskSeconds(name));
    for (const auto &name : filter_.profile().taskNames())
        combined.add(name, filter_.profile().taskSeconds(name));
    return combined;
}

} // namespace illixr
