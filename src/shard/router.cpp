#include "shard/router.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace asyncmg {

std::vector<RingNode> build_hash_ring(std::size_t num_backends,
                                      std::size_t vnodes_per_backend,
                                      std::uint64_t seed) {
  if (num_backends < 1) {
    throw std::invalid_argument("build_hash_ring: num_backends must be >= 1");
  }
  if (vnodes_per_backend < 1) {
    throw std::invalid_argument(
        "build_hash_ring: vnodes_per_backend must be >= 1");
  }
  std::vector<RingNode> ring;
  ring.reserve(num_backends * vnodes_per_backend);
  for (std::size_t b = 0; b < num_backends; ++b) {
    for (std::size_t v = 0; v < vnodes_per_backend; ++v) {
      const std::string label = "backend-" + std::to_string(b) + ":" +
                                std::to_string(v) + ":" +
                                std::to_string(seed);
      ring.push_back({content_hash(label.data(), label.size()), b});
    }
  }
  std::sort(ring.begin(), ring.end(), [](const RingNode& l, const RingNode& r) {
    return l.hash < r.hash || (l.hash == r.hash && l.backend < r.backend);
  });
  return ring;
}

std::vector<std::size_t> select_backends(const std::vector<RingNode>& ring,
                                         std::uint64_t key,
                                         std::size_t count) {
  if (ring.empty() || count == 0) {
    throw std::invalid_argument("select_backends: empty ring or zero count");
  }
  // First vnode clockwise from key, then keep walking collecting distinct
  // backends (wrapping once).
  const auto first = std::lower_bound(
      ring.begin(), ring.end(), key,
      [](const RingNode& node, std::uint64_t k) { return node.hash < k; });
  const auto start = static_cast<std::size_t>(first - ring.begin());
  std::vector<std::size_t> out;
  for (std::size_t step = 0; step < ring.size() && out.size() < count;
       ++step) {
    const std::size_t backend = ring[(start + step) % ring.size()].backend;
    if (std::find(out.begin(), out.end(), backend) == out.end()) {
      out.push_back(backend);
    }
  }
  if (out.size() < count) {
    throw std::invalid_argument(
        "select_backends: ring has fewer distinct backends than requested");
  }
  return out;
}

std::size_t ring_lookup(const std::vector<RingNode>& ring, std::uint64_t key) {
  return select_backends(ring, key, 1).front();
}

std::uint64_t ring_key(const MatrixFingerprint& fp) {
  // Rehash so ring position is independent of the cache-key hash value.
  struct {
    std::uint64_t h;
    std::int64_t rows, cols, nnz;
  } probe{fp.hash, fp.rows, fp.cols, fp.nnz};
  return content_hash(&probe, sizeof(probe));
}

void ShardRouterOptions::validate() const {
  if (num_backends < 1) {
    throw std::invalid_argument(
        "ShardRouterOptions: num_backends must be >= 1");
  }
  if (vnodes_per_backend < 1) {
    throw std::invalid_argument(
        "ShardRouterOptions: vnodes_per_backend must be >= 1");
  }
  if (service.num_threads < 1) {
    throw std::invalid_argument(
        "ShardRouterOptions: service.num_threads must be >= 1");
  }
  if (service.max_queue < 1) {
    throw std::invalid_argument(
        "ShardRouterOptions: service.max_queue must be >= 1");
  }
}

ShardRouter::ShardRouter(ShardRouterOptions opts) : opts_(std::move(opts)) {
  opts_.validate();
  backends_.reserve(opts_.num_backends);
  for (std::size_t b = 0; b < opts_.num_backends; ++b) {
    backends_.push_back(std::make_unique<SolveService>(opts_.service));
  }
  ring_ = build_hash_ring(opts_.num_backends, opts_.vnodes_per_backend,
                          opts_.ring_seed);
  routed_per_backend_.assign(opts_.num_backends, 0);
}

std::size_t ShardRouter::backend_of(const CsrMatrix& a) const {
  return ring_lookup(ring_, ring_key(matrix_fingerprint(a)));
}

std::future<SolveResponse> ShardRouter::submit(CsrMatrix a, Vector b,
                                               RequestOptions ropts) {
  // Failover walk: home first, then the remaining backends in ring order.
  // By-value parameters consume the arguments even when submit throws, so
  // every attempt but the last gets a copy and the originals stay usable.
  const std::vector<std::size_t> order = select_backends(
      ring_, ring_key(matrix_fingerprint(a)), backends_.size());
  for (std::size_t i = 0;; ++i) {
    const std::size_t backend = order[i];
    const bool last = i + 1 == order.size();
    try {
      auto fut = last
                     ? backends_[backend]->submit(std::move(a), std::move(b),
                                                  ropts)
                     : backends_[backend]->submit(a, b, ropts);
      const std::lock_guard<std::mutex> g(mu_);
      ++routed_;
      ++routed_per_backend_[backend];
      if (i != 0) ++failovers_;
      return fut;
    } catch (const ServiceOverloaded&) {
      if (last) throw;
    }
  }
}

std::vector<BatchResult> ShardRouter::solve_batch(
    const CsrMatrix& a, const std::vector<Vector>& rhs, BatchOptions bopts) {
  const std::size_t home = backend_of(a);
  {
    const std::lock_guard<std::mutex> g(mu_);
    ++routed_;
    ++routed_per_backend_[home];
  }
  return backends_[home]->solve_batch(a, rhs, bopts);
}

std::string ShardRouter::stats_json() const {
  std::uint64_t routed = 0;
  std::uint64_t failovers = 0;
  std::vector<std::uint64_t> per_backend;
  {
    const std::lock_guard<std::mutex> g(mu_);
    routed = routed_;
    failovers = failovers_;
    per_backend = routed_per_backend_;
  }
  std::uint64_t submitted = 0, completed = 0, rejected = 0, timed_out = 0;
  std::vector<std::string> backend_json;
  backend_json.reserve(backends_.size());
  for (const auto& svc : backends_) {
    const ServiceStats st = svc->stats();
    submitted += st.submitted;
    completed += st.completed;
    rejected += st.rejected;
    timed_out += st.timed_out;
    backend_json.push_back(svc->stats_json());
  }
  std::ostringstream o;
  o << "{\"routed\":" << routed << ",\"failovers\":" << failovers
    << ",\"backends\":" << backends_.size() << ",\"routed_per_backend\":[";
  for (std::size_t b = 0; b < per_backend.size(); ++b) {
    if (b != 0) o << ",";
    o << per_backend[b];
  }
  o << "],\"totals\":{\"submitted\":" << submitted
    << ",\"completed\":" << completed << ",\"rejected\":" << rejected
    << ",\"timed_out\":" << timed_out << "},\"backend_stats\":[";
  for (std::size_t b = 0; b < backend_json.size(); ++b) {
    if (b != 0) o << ",";
    o << backend_json[b];
  }
  o << "]}";
  return o.str();
}

}  // namespace asyncmg
