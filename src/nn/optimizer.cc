#include "nn/optimizer.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "tensor/kernels.h"

namespace pafeat {

SgdOptimizer::SgdOptimizer(float learning_rate, float momentum)
    : learning_rate_(learning_rate), momentum_(momentum) {}

void SgdOptimizer::Step(const std::vector<Matrix*>& params,
                        const std::vector<Matrix*>& grads) {
  PF_CHECK_EQ(params.size(), grads.size());
  if (velocity_.empty() && momentum_ > 0.0f) {
    for (Matrix* p : params) velocity_.emplace_back(p->rows(), p->cols());
  }
  for (size_t i = 0; i < params.size(); ++i) {
    Matrix& p = *params[i];
    const Matrix& g = *grads[i];
    PF_CHECK(p.SameShape(g));
    if (momentum_ > 0.0f) {
      Matrix& vel = velocity_[i];
      vel.Scale(momentum_);
      vel.Axpy(1.0f, g);
      p.Axpy(-learning_rate_, vel);
    } else {
      p.Axpy(-learning_rate_, g);
    }
  }
}

AdamOptimizer::AdamOptimizer(float learning_rate, float beta1, float beta2,
                             float epsilon)
    : learning_rate_(learning_rate),
      beta1_(beta1),
      beta2_(beta2),
      epsilon_(epsilon) {}

void AdamOptimizer::Step(const std::vector<Matrix*>& params,
                         const std::vector<Matrix*>& grads) {
  PF_CHECK_EQ(params.size(), grads.size());
  if (m_.empty()) {
    for (Matrix* p : params) {
      m_.emplace_back(p->rows(), p->cols());
      v_.emplace_back(p->rows(), p->cols());
    }
  }
  PF_CHECK_EQ(m_.size(), params.size());
  ++step_;
  const float bias1 = 1.0f - std::pow(beta1_, static_cast<float>(step_));
  const float bias2 = 1.0f - std::pow(beta2_, static_cast<float>(step_));
  const kernels::AdamCoefficients coefficients{
      learning_rate_, beta1_, beta2_, epsilon_, bias1, bias2};
  for (size_t i = 0; i < params.size(); ++i) {
    Matrix& p = *params[i];
    const Matrix& g = *grads[i];
    PF_CHECK(p.SameShape(g));
    kernels::AdamUpdate(coefficients, p.size(), g.data(), m_[i].data(),
                        v_[i].data(), p.data());
  }
}

void AdamOptimizer::ExportState(long long* step, std::vector<float>* m,
                                std::vector<float>* v) const {
  *step = step_;
  m->clear();
  v->clear();
  for (const Matrix& moment : m_) {
    m->insert(m->end(), moment.data(), moment.data() + moment.size());
  }
  for (const Matrix& moment : v_) {
    v->insert(v->end(), moment.data(), moment.data() + moment.size());
  }
}

bool AdamOptimizer::ImportState(long long step, const std::vector<float>& m,
                                const std::vector<float>& v,
                                const std::vector<Matrix*>& params) {
  if (step < 0 || m.size() != v.size()) return false;
  if (m.empty()) {
    if (step != 0) return false;
    step_ = 0;
    m_.clear();
    v_.clear();
    return true;
  }
  size_t total = 0;
  for (const Matrix* p : params) total += p->size();
  if (m.size() != total) return false;
  m_.clear();
  v_.clear();
  size_t offset = 0;
  for (const Matrix* p : params) {
    m_.emplace_back(p->rows(), p->cols());
    v_.emplace_back(p->rows(), p->cols());
    std::copy(m.begin() + offset, m.begin() + offset + p->size(),
              m_.back().data());
    std::copy(v.begin() + offset, v.begin() + offset + p->size(),
              v_.back().data());
    offset += p->size();
  }
  step_ = step;
  return true;
}

}  // namespace pafeat
