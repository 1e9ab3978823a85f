#include "metrics/telemetry.hpp"

#include <cstdio>
#include <sstream>

namespace illixr {

bool
writeSeriesCsv(const SampleSeries &series, const std::string &path,
               const std::string &value_name)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "index,%s\n", value_name.c_str());
    const auto &samples = series.samples();
    for (std::size_t i = 0; i < samples.size(); ++i)
        std::fprintf(f, "%zu,%.9g\n", i, samples[i]);
    return std::fclose(f) == 0;
}

bool
writePoseCsv(const std::vector<StampedPose> &trajectory,
             const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "time_ns,px,py,pz,qw,qx,qy,qz\n");
    for (const StampedPose &sp : trajectory) {
        const Pose &p = sp.pose;
        std::fprintf(f,
                     "%lld,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g\n",
                     static_cast<long long>(sp.time), p.position.x,
                     p.position.y, p.position.z, p.orientation.w,
                     p.orientation.x, p.orientation.y, p.orientation.z);
    }
    return std::fclose(f) == 0;
}

void
TextTable::setHeader(const std::vector<std::string> &header)
{
    header_ = header;
}

void
TextTable::addRow(const std::vector<std::string> &row)
{
    rows_.push_back(row);
}

std::string
TextTable::render() const
{
    // Column widths.
    std::vector<std::size_t> width(header_.size(), 0);
    auto widen = [&width](const std::vector<std::string> &row) {
        for (std::size_t i = 0; i < row.size(); ++i) {
            if (i >= width.size())
                width.resize(i + 1, 0);
            width[i] = std::max(width[i], row[i].size());
        }
    };
    widen(header_);
    for (const auto &row : rows_)
        widen(row);

    std::ostringstream out;
    auto emit = [&](const std::vector<std::string> &row) {
        for (std::size_t i = 0; i < width.size(); ++i) {
            const std::string &cell = i < row.size() ? row[i] : "";
            out << cell;
            if (i + 1 < width.size())
                out << std::string(width[i] - cell.size() + 2, ' ');
        }
        out << "\n";
    };
    emit(header_);
    std::size_t total = 0;
    for (std::size_t w : width)
        total += w + 2;
    out << std::string(total > 2 ? total - 2 : total, '-') << "\n";
    for (const auto &row : rows_)
        emit(row);
    return out.str();
}

std::string
TextTable::num(double value, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
    return buf;
}

std::string
TextTable::meanStd(double mean, double std, int precision)
{
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%.*f±%.*f", precision, mean,
                  precision, std);
    return buf;
}

} // namespace illixr
