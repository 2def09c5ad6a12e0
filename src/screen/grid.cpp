#include "screen/grid.h"

#include <cmath>
#include <cstring>

#include "common/check.h"
#include "common/error.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace qdb::screen {

namespace {

constexpr double kCutoff = 8.0;  // Vina scoring cutoff, matches vina_score

/// The single-atom ligand atom a probe channel samples.
LigandAtom probe_atom(Probe probe) {
  LigandAtom a;
  switch (probe) {
    case Probe::Carbon: a.element = 'C'; a.hydrophobic = true; break;
    case Probe::Nitrogen: a.element = 'N'; a.donor = true; break;
    case Probe::Oxygen: a.element = 'O'; a.acceptor = true; break;
  }
  return a;
}

/// (1-t)*a + t*b rather than a + t*(b-a): degenerates to exactly `a` at t=0
/// and exactly `b` at t=1, which a+t*(b-a) does not guarantee in floating
/// point — and node exactness needs it to.
double lerp_exact(double t, double a, double b) { return (1.0 - t) * a + t * b; }

// --- byte-stable serialization ----------------------------------------------

constexpr char kMagic[8] = {'Q', 'D', 'B', 'G', 'R', 'I', 'D', '1'};

std::uint64_t bits_of(double v) {
  std::uint64_t b;
  static_assert(sizeof b == sizeof v);
  std::memcpy(&b, &v, sizeof b);
  return b;
}

double double_of(std::uint64_t b) {
  double v;
  std::memcpy(&v, &b, sizeof v);
  return v;
}

void append_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

std::uint64_t read_u64(const std::string& bytes, std::size_t pos) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(bytes[pos + i])) << (8 * i);
  }
  return v;
}

}  // namespace

Probe probe_for(const LigandAtom& atom) {
  switch (atom.element) {
    case 'N': return Probe::Nitrogen;
    case 'O': return Probe::Oxygen;
    default: return Probe::Carbon;  // C and rare heavy elements
  }
}

ReceptorGrid::ReceptorGrid(const Structure& receptor, const GridParams& params) {
  static obs::Counter& builds = obs::counter("screen.grid.builds");
  QDB_SPAN("screen.grid_build");
  builds.add();

  QDB_REQUIRE(params.spacing >= 0.25 && params.spacing <= 4.0,
              "grid spacing out of range [0.25, 4.0]");
  QDB_REQUIRE(params.padding >= params.spacing, "grid padding must cover one cell");
  spec_.spacing = params.spacing;
  weights_ = params.weights;

  const std::vector<Vec3> heavy = receptor.heavy_positions();
  QDB_REQUIRE(!heavy.empty(), "receptor has no heavy atoms");
  Vec3 lo = heavy.front(), hi = heavy.front();
  for (const Vec3& p : heavy) {
    lo.x = std::min(lo.x, p.x); lo.y = std::min(lo.y, p.y); lo.z = std::min(lo.z, p.z);
    hi.x = std::max(hi.x, p.x); hi.y = std::max(hi.y, p.y); hi.z = std::max(hi.z, p.z);
  }
  // Snap the box to the lattice: node coordinates become exact products
  // spacing * integer, the prerequisite of the node-exactness contract.
  const double s = spec_.spacing;
  spec_.ox = static_cast<std::int64_t>(std::floor((lo.x - params.padding) / s));
  spec_.oy = static_cast<std::int64_t>(std::floor((lo.y - params.padding) / s));
  spec_.oz = static_cast<std::int64_t>(std::floor((lo.z - params.padding) / s));
  spec_.nx = static_cast<std::int64_t>(std::ceil((hi.x + params.padding) / s)) - spec_.ox + 1;
  spec_.ny = static_cast<std::int64_t>(std::ceil((hi.y + params.padding) / s)) - spec_.oy + 1;
  spec_.nz = static_cast<std::int64_t>(std::ceil((hi.z + params.padding) / s)) - spec_.oz + 1;
  QDB_REQUIRE(spec_.nx >= 2 && spec_.ny >= 2 && spec_.nz >= 2, "degenerate grid");
  const std::int64_t nodes = num_nodes();
  QDB_REQUIRE(nodes <= (std::int64_t{1} << 27), "grid too large (lower the padding "
                                                "or raise the spacing)");

  const qdb::NeighbourIndex rec(type_receptor(receptor), kCutoff);
  const std::array<LigandAtom, kNumProbes> probes = {
      probe_atom(Probe::Carbon), probe_atom(Probe::Nitrogen), probe_atom(Probe::Oxygen)};
  for (auto& channel : values_) channel.assign(static_cast<std::size_t>(nodes), 0.0);

  // Disjoint writes per node: the built grid is identical for every thread
  // count and backend.
  static obs::Counter& node_evals = obs::counter("screen.grid.node_evals");
  parallel_for_threads(nodes, params.threads, [&](std::int64_t n) {
    const std::int64_t i = n / (spec_.ny * spec_.nz);
    const std::int64_t j = (n / spec_.nz) % spec_.ny;
    const std::int64_t k = n % spec_.nz;
    const Vec3 p = node_pos(i, j, k);
    for (int probe = 0; probe < kNumProbes; ++probe) {
      values_[static_cast<std::size_t>(probe)][static_cast<std::size_t>(n)] =
          accumulate_point_energy(rec, p, probes[static_cast<std::size_t>(probe)], 0.0,
                                  weights_);
    }
  });
  node_evals.add(static_cast<std::uint64_t>(nodes) * kNumProbes);
}

Vec3 ReceptorGrid::node_pos(std::int64_t i, std::int64_t j, std::int64_t k) const {
  return Vec3{spec_.spacing * static_cast<double>(spec_.ox + i),
              spec_.spacing * static_cast<double>(spec_.oy + j),
              spec_.spacing * static_cast<double>(spec_.oz + k)};
}

double ReceptorGrid::node_value(std::int64_t i, std::int64_t j, std::int64_t k,
                                Probe probe) const {
  QDB_REQUIRE(i >= 0 && i < spec_.nx && j >= 0 && j < spec_.ny && k >= 0 && k < spec_.nz,
              "grid node out of range");
  return values_[static_cast<std::size_t>(probe)][flat(i, j, k)];
}

double ReceptorGrid::value_at(const Vec3& p, Probe probe) const {
  // Lattice coordinates: exact integers when p is a node (node coordinates
  // are exact products, and x/s recovers the integer exactly).
  const double fx = p.x / spec_.spacing - static_cast<double>(spec_.ox);
  const double fy = p.y / spec_.spacing - static_cast<double>(spec_.oy);
  const double fz = p.z / spec_.spacing - static_cast<double>(spec_.oz);
  if (!(fx >= 0.0 && fx <= static_cast<double>(spec_.nx - 1) &&
        fy >= 0.0 && fy <= static_cast<double>(spec_.ny - 1) &&
        fz >= 0.0 && fz <= static_cast<double>(spec_.nz - 1))) {
    return kOutOfBoxPenalty;  // also catches NaN coordinates
  }
  std::int64_t ix = static_cast<std::int64_t>(std::floor(fx));
  std::int64_t iy = static_cast<std::int64_t>(std::floor(fy));
  std::int64_t iz = static_cast<std::int64_t>(std::floor(fz));
  if (ix > spec_.nx - 2) ix = spec_.nx - 2;  // upper face: t degenerates to 1
  if (iy > spec_.ny - 2) iy = spec_.ny - 2;
  if (iz > spec_.nz - 2) iz = spec_.nz - 2;
  const double tx = fx - static_cast<double>(ix);
  const double ty = fy - static_cast<double>(iy);
  const double tz = fz - static_cast<double>(iz);

  const auto& v = values_[static_cast<std::size_t>(probe)];
  const double c00 = lerp_exact(tz, v[flat(ix, iy, iz)], v[flat(ix, iy, iz + 1)]);
  const double c01 = lerp_exact(tz, v[flat(ix, iy + 1, iz)], v[flat(ix, iy + 1, iz + 1)]);
  const double c10 = lerp_exact(tz, v[flat(ix + 1, iy, iz)], v[flat(ix + 1, iy, iz + 1)]);
  const double c11 =
      lerp_exact(tz, v[flat(ix + 1, iy + 1, iz)], v[flat(ix + 1, iy + 1, iz + 1)]);
  return lerp_exact(tx, lerp_exact(ty, c00, c01), lerp_exact(ty, c10, c11));
}

double ReceptorGrid::filter_energy(const Ligand& ligand,
                                   const std::vector<Vec3>& coords) const {
  QDB_REQUIRE(coords.size() == static_cast<std::size_t>(ligand.num_atoms()),
              "coords/ligand mismatch");
  double total = 0.0;
  for (std::size_t i = 0; i < coords.size(); ++i) {
    const LigandAtom& la = ligand.atoms()[i];
    if (la.element == 'H') continue;
    total += value_at(coords[i], probe_for(la));
  }
  return total;
}

double ReceptorGrid::filter_affinity(const Ligand& ligand,
                                     const std::vector<Vec3>& coords) const {
  return affinity_from_energy(filter_energy(ligand, coords), ligand.num_torsions(),
                              weights_);
}

std::string ReceptorGrid::serialize() const {
  std::string out(kMagic, sizeof kMagic);
  append_u64(out, bits_of(spec_.spacing));
  append_u64(out, static_cast<std::uint64_t>(spec_.ox));
  append_u64(out, static_cast<std::uint64_t>(spec_.oy));
  append_u64(out, static_cast<std::uint64_t>(spec_.oz));
  append_u64(out, static_cast<std::uint64_t>(spec_.nx));
  append_u64(out, static_cast<std::uint64_t>(spec_.ny));
  append_u64(out, static_cast<std::uint64_t>(spec_.nz));
  append_u64(out, bits_of(weights_.gauss1));
  append_u64(out, bits_of(weights_.gauss2));
  append_u64(out, bits_of(weights_.repulsion));
  append_u64(out, bits_of(weights_.hydrophobic));
  append_u64(out, bits_of(weights_.hbond));
  append_u64(out, bits_of(weights_.rot_penalty));
  out.reserve(out.size() + static_cast<std::size_t>(num_nodes()) * kNumProbes * 8 + 8);
  for (const auto& channel : values_) {
    for (double v : channel) append_u64(out, bits_of(v));
  }
  append_u64(out, fnv1a(out));  // integrity trailer over everything above
  return out;
}

ReceptorGrid ReceptorGrid::deserialize(const std::string& bytes) {
  constexpr std::size_t kHeader = sizeof kMagic + 13 * 8;
  if (bytes.size() < kHeader + 8 ||
      std::memcmp(bytes.data(), kMagic, sizeof kMagic) != 0) {
    throw IoError("receptor grid: bad magic or truncated header");
  }
  const std::uint64_t stored = read_u64(bytes, bytes.size() - 8);
  const std::uint64_t actual =
      fnv1a(std::string_view(bytes.data(), bytes.size() - 8));
  if (stored != actual) throw IoError("receptor grid: integrity trailer mismatch");

  ReceptorGrid g;
  std::size_t pos = sizeof kMagic;
  auto next = [&]() { const std::uint64_t v = read_u64(bytes, pos); pos += 8; return v; };
  g.spec_.spacing = double_of(next());
  g.spec_.ox = static_cast<std::int64_t>(next());
  g.spec_.oy = static_cast<std::int64_t>(next());
  g.spec_.oz = static_cast<std::int64_t>(next());
  g.spec_.nx = static_cast<std::int64_t>(next());
  g.spec_.ny = static_cast<std::int64_t>(next());
  g.spec_.nz = static_cast<std::int64_t>(next());
  g.weights_.gauss1 = double_of(next());
  g.weights_.gauss2 = double_of(next());
  g.weights_.repulsion = double_of(next());
  g.weights_.hydrophobic = double_of(next());
  g.weights_.hbond = double_of(next());
  g.weights_.rot_penalty = double_of(next());
  // Each axis is bounded before any product, so crafted dimensions cannot
  // overflow: nx * ny is at most 2^54, and nz divides rather than multiplies.
  constexpr std::int64_t kMaxNodes = std::int64_t{1} << 27;
  const auto axis_ok = [](std::int64_t n) { return n >= 2 && n <= kMaxNodes; };
  if (!axis_ok(g.spec_.nx) || !axis_ok(g.spec_.ny) || !axis_ok(g.spec_.nz) ||
      g.spec_.nx * g.spec_.ny > kMaxNodes / g.spec_.nz || !(g.spec_.spacing > 0.0)) {
    throw IoError("receptor grid: implausible dimensions");
  }
  const std::size_t nodes = static_cast<std::size_t>(g.num_nodes());
  if (bytes.size() != kHeader + nodes * kNumProbes * 8 + 8) {
    throw IoError("receptor grid: node payload size mismatch");
  }
  for (auto& channel : g.values_) {
    channel.resize(nodes);
    for (double& v : channel) v = double_of(next());
  }
  return g;
}

}  // namespace qdb::screen
