#include "nn/module.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>

#include "common/check.hpp"

namespace dagt::nn {

std::vector<tensor::Tensor> Module::parameters() const {
  std::vector<tensor::Tensor> all(ownParameters_);
  for (const auto& [child, trainable] : children_) {
    if (!trainable) continue;
    const auto childParams = child->parameters();
    all.insert(all.end(), childParams.begin(), childParams.end());
  }
  return all;
}

std::vector<tensor::Tensor> Module::stateTensors() const {
  std::vector<tensor::Tensor> all(ownParameters_);
  for (const auto& [child, trainable] : children_) {
    const auto childState = child->stateTensors();
    all.insert(all.end(), childState.begin(), childState.end());
  }
  return all;
}

void Module::zeroGrad() {
  for (auto& p : parameters()) p.zeroGrad();
}

std::int64_t Module::parameterCount() const {
  std::int64_t count = 0;
  for (const auto& p : parameters()) count += p.numel();
  return count;
}

namespace {

/// Leading magic of the parameter file format; the trailing digit is the
/// format version. Catches "this is not a parameter file at all" before
/// any size fields are trusted.
constexpr char kParamMagic[8] = {'D', 'A', 'G', 'T', 'P', 'R', 'M', '1'};

}  // namespace

void Module::saveParameters(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  DAGT_CHECK_MSG(out.good(), "cannot open " << path << " for writing");
  out.write(kParamMagic, sizeof(kParamMagic));
  const auto params = stateTensors();
  const std::uint64_t count = params.size();
  out.write(reinterpret_cast<const char*>(&count), sizeof(count));
  for (const auto& p : params) {
    const std::uint64_t n = static_cast<std::uint64_t>(p.numel());
    out.write(reinterpret_cast<const char*>(&n), sizeof(n));
    out.write(reinterpret_cast<const char*>(p.data()),
              static_cast<std::streamsize>(n * sizeof(float)));
  }
  DAGT_CHECK_MSG(out.good(), "write to " << path << " failed");
}

void Module::loadParameters(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  DAGT_CHECK_MSG(in.good(), "cannot open " << path << " for reading");
  char magic[sizeof(kParamMagic)] = {};
  in.read(magic, sizeof(magic));
  DAGT_CHECK_MSG(in.good() && std::equal(magic, magic + sizeof(magic),
                                         kParamMagic),
                 path << " is not a dagt parameter file");
  auto params = stateTensors();
  std::uint64_t count = 0;
  in.read(reinterpret_cast<char*>(&count), sizeof(count));
  DAGT_CHECK_MSG(in.good(), path << " is truncated (no tensor count)");
  DAGT_CHECK_MSG(count == params.size(),
                 "loadParameters: file has " << count << " tensors, model has "
                                             << params.size());
  // Stage into a buffer first: a truncated or mismatched file must not leave
  // the module half-overwritten.
  std::vector<std::vector<float>> staged;
  staged.reserve(params.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    std::uint64_t n = 0;
    in.read(reinterpret_cast<char*>(&n), sizeof(n));
    DAGT_CHECK_MSG(in.good(),
                   path << " is truncated at tensor " << i << " header");
    DAGT_CHECK_MSG(n == static_cast<std::uint64_t>(params[i].numel()),
                   "loadParameters: tensor " << i << " has " << n
                       << " values, model expects " << params[i].numel());
    std::vector<float> values(static_cast<std::size_t>(n));
    in.read(reinterpret_cast<char*>(values.data()),
            static_cast<std::streamsize>(n * sizeof(float)));
    DAGT_CHECK_MSG(in.good(), path << " is truncated at tensor " << i);
    staged.push_back(std::move(values));
  }
  in.peek();
  DAGT_CHECK_MSG(in.eof(), path << " has trailing bytes after the last "
                                   "tensor (corrupt or wrong model)");
  for (std::size_t i = 0; i < params.size(); ++i) {
    std::copy(staged[i].begin(), staged[i].end(), params[i].data());
  }
  tensor::expr::noteParametersWritten();
}

void Module::mixStateInto(tensor::expr::SigHash& sig) const {
  for (const auto& t : stateTensors()) sig.mixTensor(t);
}

tensor::Tensor Module::registerParameter(tensor::Tensor parameter) {
  DAGT_CHECK(parameter.defined());
  parameter.setRequiresGrad(true);
  ownParameters_.push_back(parameter);
  return parameter;
}

void Module::registerChild(Module& child, bool trainable) {
  children_.emplace_back(&child, trainable);
}

}  // namespace dagt::nn
