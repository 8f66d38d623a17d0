#include "core/checkpoint.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>

#include "io/matrix_io.h"
#include "util/fault.h"

namespace rhchme {
namespace core {
namespace {

constexpr char kMagic[4] = {'R', 'H', 'S', '1'};
// Version 2 dropped the solver-core id field (one core is left).
constexpr uint32_t kVersion = 2;

// Vector lengths share the matrix format's plausibility ceiling; a
// corrupted length field must not turn into a huge allocation.
constexpr uint64_t kMaxVectorLength = 1ull << 32;

uint64_t Fnv1a(const char* data, std::size_t n) {
  uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 1099511628211ull;
  }
  return h;
}

template <typename T>
void AppendPod(const T& v, std::string* out) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
bool ParsePod(const std::string& buf, std::size_t* pos, T* out) {
  if (*pos > buf.size() || buf.size() - *pos < sizeof(T)) return false;
  std::memcpy(out, buf.data() + *pos, sizeof(T));
  *pos += sizeof(T);
  return true;
}

void AppendDoubleVector(const std::vector<double>& v, std::string* out) {
  AppendPod(static_cast<uint64_t>(v.size()), out);
  out->append(reinterpret_cast<const char*>(v.data()),
              v.size() * sizeof(double));
}

Status ParseDoubleVector(const std::string& buf, std::size_t* pos,
                         std::vector<double>* out) {
  uint64_t count = 0;
  if (!ParsePod(buf, pos, &count)) {
    return Status::InvalidArgument("snapshot: truncated vector length");
  }
  if (count > kMaxVectorLength) {
    return Status::InvalidArgument("snapshot: implausible vector length");
  }
  const uint64_t bytes = count * sizeof(double);
  if (*pos > buf.size() || buf.size() - *pos < bytes) {
    return Status::InvalidArgument("snapshot: truncated vector body");
  }
  out->resize(count);
  std::memcpy(out->data(), buf.data() + *pos, bytes);
  *pos += bytes;
  return Status::OK();
}

// Bools cross the serialisation boundary as one explicit byte — padding
// and sizeof(bool) portability aside, a corrupted byte must still parse
// to a valid bool.
void AppendBool(bool v, std::string* out) {
  AppendPod<uint8_t>(v ? 1 : 0, out);
}

Status ParseBool(const std::string& buf, std::size_t* pos, bool* out) {
  uint8_t b = 0;
  if (!ParsePod(buf, pos, &b)) {
    return Status::InvalidArgument("snapshot: truncated bool field");
  }
  if (b > 1) return Status::InvalidArgument("snapshot: bad bool field");
  *out = b != 0;
  return Status::OK();
}

void AppendDiagnostics(const FitDiagnostics& d, std::string* out) {
  AppendPod(static_cast<uint64_t>(d.nonfinite_input_entries), out);
  AppendPod(static_cast<uint64_t>(d.nonfinite_g_entries), out);
  AppendPod(static_cast<int64_t>(d.nan_guard_trips), out);
  AppendPod(static_cast<int64_t>(d.solve_ridge_retries), out);
  AppendPod(static_cast<int64_t>(d.backtracks), out);
  AppendPod(static_cast<int64_t>(d.degraded_stops), out);
  AppendPod(static_cast<int64_t>(d.snapshots_written), out);
  AppendPod(static_cast<int64_t>(d.snapshot_failures), out);
  AppendPod(static_cast<int64_t>(d.resumed_from_iteration), out);
}

Status ParseDiagnostics(const std::string& buf, std::size_t* pos,
                        FitDiagnostics* d) {
  uint64_t u[2] = {0, 0};
  int64_t i[7] = {0, 0, 0, 0, 0, 0, 0};
  for (auto& v : u) {
    if (!ParsePod(buf, pos, &v)) {
      return Status::InvalidArgument("snapshot: truncated diagnostics");
    }
  }
  for (auto& v : i) {
    if (!ParsePod(buf, pos, &v)) {
      return Status::InvalidArgument("snapshot: truncated diagnostics");
    }
  }
  d->nonfinite_input_entries = static_cast<std::size_t>(u[0]);
  d->nonfinite_g_entries = static_cast<std::size_t>(u[1]);
  d->nan_guard_trips = static_cast<int>(i[0]);
  d->solve_ridge_retries = static_cast<int>(i[1]);
  d->backtracks = static_cast<int>(i[2]);
  d->degraded_stops = static_cast<int>(i[3]);
  d->snapshots_written = static_cast<int>(i[4]);
  d->snapshot_failures = static_cast<int>(i[5]);
  d->resumed_from_iteration = static_cast<int>(i[6]);
  return Status::OK();
}

std::string Serialize(const SolverSnapshot& snap) {
  std::string out;
  out.append(kMagic, sizeof(kMagic));
  AppendPod(kVersion, &out);
  AppendPod(snap.options_fingerprint, &out);
  AppendPod(static_cast<int64_t>(snap.iteration), &out);
  AppendPod(snap.prev_objective, &out);
  AppendBool(snap.have_error, &out);
  for (uint64_t s : snap.rng_state.s) AppendPod(s, &out);
  AppendBool(snap.rng_state.have_cached_normal, &out);
  AppendPod(snap.rng_state.cached_normal, &out);
  AppendDiagnostics(snap.diagnostics, &out);
  io::AppendMatrixPayload(snap.g, &out);
  io::AppendMatrixPayload(snap.s, &out);
  AppendDoubleVector(snap.er_scale, &out);
  AppendDoubleVector(snap.objective_trace, &out);
  AppendPod(Fnv1a(out.data(), out.size()), &out);
  return out;
}

}  // namespace

uint64_t OptionsFingerprint(const RhchmeOptions& opts, std::size_t n,
                            std::size_t c) {
  std::string buf;
  AppendPod(opts.lambda, &buf);
  AppendPod(opts.beta, &buf);
  AppendPod(opts.tolerance, &buf);
  AppendPod(opts.ridge, &buf);
  AppendPod(opts.mu_eps, &buf);
  AppendPod(opts.l21_zeta, &buf);
  AppendPod(static_cast<uint32_t>(opts.init), &buf);
  AppendPod(opts.seed, &buf);
  AppendBool(opts.normalize_rows, &buf);
  AppendBool(opts.use_error_matrix, &buf);
  AppendPod(static_cast<uint64_t>(n), &buf);
  AppendPod(static_cast<uint64_t>(c), &buf);
  return Fnv1a(buf.data(), buf.size());
}

Status SaveSolverSnapshot(const std::string& path,
                          const SolverSnapshot& snap) {
  const std::string buf = Serialize(snap);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
    if (!f) {
      return Status::InvalidArgument("cannot open for write: " + tmp);
    }
    if (util::FaultShouldFail(util::fault_site::kSnapshotWriteTruncate)) {
      // Simulated kill mid-write: half the bytes land, the rename never
      // happens. The previous snapshot at `path` stays intact.
      f.write(buf.data(), static_cast<std::streamsize>(buf.size() / 2));
      return Status::Internal("injected truncated snapshot write: " + tmp);
    }
    f.write(buf.data(), static_cast<std::streamsize>(buf.size()));
    if (!f) return Status::Internal("snapshot write failed: " + tmp);
  }
  if (util::FaultShouldFail(util::fault_site::kSnapshotRenameFail)) {
    std::remove(tmp.c_str());
    return Status::Internal("injected snapshot rename failure: " + path);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Internal("snapshot rename failed: " + path);
  }
  return Status::OK();
}

Result<SolverSnapshot> LoadSolverSnapshot(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return Status::NotFound("cannot open snapshot: " + path);
  std::string buf((std::istreambuf_iterator<char>(f)),
                  std::istreambuf_iterator<char>());
  if (!f.good() && !f.eof()) {
    return Status::Internal("snapshot read failed: " + path);
  }
  // The checksum trails everything, so integrity is settled before any
  // field is interpreted: a file shorter than header + checksum, or one
  // whose trailing hash disagrees with its contents, never reaches the
  // parser.
  constexpr std::size_t kMinSize =
      sizeof(kMagic) + sizeof(uint32_t) + sizeof(uint64_t);
  if (buf.size() < kMinSize) {
    return Status::InvalidArgument("truncated snapshot: " + path);
  }
  uint64_t stored_sum = 0;
  std::memcpy(&stored_sum, buf.data() + buf.size() - sizeof(uint64_t),
              sizeof(uint64_t));
  if (Fnv1a(buf.data(), buf.size() - sizeof(uint64_t)) != stored_sum) {
    return Status::InvalidArgument("snapshot checksum mismatch: " + path);
  }
  std::size_t pos = 0;
  if (std::memcmp(buf.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("bad snapshot magic: " + path);
  }
  pos += sizeof(kMagic);
  uint32_t version = 0;
  if (!ParsePod(buf, &pos, &version)) {
    return Status::InvalidArgument("truncated snapshot: " + path);
  }
  if (version != kVersion) {
    return Status::FailedPrecondition(
        "unsupported snapshot version " + std::to_string(version) + " in: " +
        path);
  }
  SolverSnapshot snap;
  int64_t iteration = 0;
  if (!ParsePod(buf, &pos, &snap.options_fingerprint) ||
      !ParsePod(buf, &pos, &iteration) ||
      !ParsePod(buf, &pos, &snap.prev_objective)) {
    return Status::InvalidArgument("truncated snapshot header: " + path);
  }
  snap.iteration = static_cast<int>(iteration);
  RHCHME_RETURN_IF_ERROR(ParseBool(buf, &pos, &snap.have_error));
  for (uint64_t& s : snap.rng_state.s) {
    if (!ParsePod(buf, &pos, &s)) {
      return Status::InvalidArgument("truncated RNG state in: " + path);
    }
  }
  RHCHME_RETURN_IF_ERROR(
      ParseBool(buf, &pos, &snap.rng_state.have_cached_normal));
  if (!ParsePod(buf, &pos, &snap.rng_state.cached_normal)) {
    return Status::InvalidArgument("truncated RNG state in: " + path);
  }
  RHCHME_RETURN_IF_ERROR(ParseDiagnostics(buf, &pos, &snap.diagnostics));
  {
    Result<la::Matrix> g =
        io::ParseMatrixPayload(buf.data(), buf.size() - sizeof(uint64_t),
                               &pos);
    if (!g.ok()) return g.status().WithContext(__FILE__, __LINE__);
    snap.g = std::move(g).value();
    Result<la::Matrix> s =
        io::ParseMatrixPayload(buf.data(), buf.size() - sizeof(uint64_t),
                               &pos);
    if (!s.ok()) return s.status().WithContext(__FILE__, __LINE__);
    snap.s = std::move(s).value();
  }
  RHCHME_RETURN_IF_ERROR(ParseDoubleVector(buf, &pos, &snap.er_scale));
  RHCHME_RETURN_IF_ERROR(ParseDoubleVector(buf, &pos, &snap.objective_trace));
  if (pos != buf.size() - sizeof(uint64_t)) {
    return Status::InvalidArgument("snapshot has trailing bytes: " + path);
  }
  return snap;
}

}  // namespace core
}  // namespace rhchme
