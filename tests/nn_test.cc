#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "nn/activation.h"
#include "nn/dueling_net.h"
#include "nn/mlp.h"
#include "nn/optimizer.h"

namespace pafeat {
namespace {

TEST(ActivationTest, ReluClampsNegatives) {
  Matrix m = Matrix::RowVector({-1.0f, 0.0f, 2.0f});
  ApplyActivation(Activation::kRelu, &m);
  EXPECT_FLOAT_EQ(m.At(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(m.At(0, 1), 0.0f);
  EXPECT_FLOAT_EQ(m.At(0, 2), 2.0f);
}

TEST(ActivationTest, SigmoidRange) {
  Matrix m = Matrix::RowVector({-10.0f, 0.0f, 10.0f});
  ApplyActivation(Activation::kSigmoid, &m);
  EXPECT_NEAR(m.At(0, 0), 0.0f, 1e-3f);
  EXPECT_FLOAT_EQ(m.At(0, 1), 0.5f);
  EXPECT_NEAR(m.At(0, 2), 1.0f, 1e-3f);
}

TEST(ActivationTest, TanhOddFunction) {
  Matrix m = Matrix::RowVector({-1.5f, 1.5f});
  ApplyActivation(Activation::kTanh, &m);
  EXPECT_NEAR(m.At(0, 0), -m.At(0, 1), 1e-6f);
}

// Finite-difference gradient check: the heart of trusting the manual
// backprop that replaces autograd.
TEST(MlpTest, GradientMatchesFiniteDifference) {
  Rng rng(3);
  MlpConfig config;
  config.input_dim = 4;
  config.hidden_dims = {5};
  config.output_dim = 3;
  config.hidden_activation = Activation::kTanh;  // smooth for FD checks
  Mlp net(config, &rng);

  const Matrix input = Matrix::RandomNormal(2, 4, 1.0f, &rng);
  const Matrix target = Matrix::RandomNormal(2, 3, 1.0f, &rng);

  auto loss_fn = [&]() {
    const Matrix out = net.Predict(input);
    double loss = 0.0;
    for (int r = 0; r < out.rows(); ++r) {
      for (int c = 0; c < out.cols(); ++c) {
        const double d = out.At(r, c) - target.At(r, c);
        loss += 0.5 * d * d;
      }
    }
    return loss;
  };

  // Analytic gradients.
  const Matrix& out = net.Forward(input);
  Matrix grad = out;
  grad.Sub(target);
  net.ZeroGrad();
  net.Backward(grad);

  const std::vector<Matrix*> params = net.Params();
  const std::vector<Matrix*> grads = net.Grads();
  const float eps = 1e-3f;
  for (size_t p = 0; p < params.size(); ++p) {
    // Spot-check a handful of coordinates per tensor.
    for (int idx = 0; idx < std::min(5, params[p]->size()); ++idx) {
      float& w = params[p]->data()[idx];
      const float original = w;
      w = original + eps;
      const double loss_plus = loss_fn();
      w = original - eps;
      const double loss_minus = loss_fn();
      w = original;
      const double fd = (loss_plus - loss_minus) / (2.0 * eps);
      EXPECT_NEAR(grads[p]->data()[idx], fd, 2e-2)
          << "param " << p << " index " << idx;
    }
  }
}

TEST(MlpTest, BackwardReturnsInputGradient) {
  Rng rng(5);
  MlpConfig config;
  config.input_dim = 3;
  config.hidden_dims = {4};
  config.output_dim = 2;
  config.hidden_activation = Activation::kTanh;
  Mlp net(config, &rng);

  Matrix input = Matrix::RandomNormal(1, 3, 1.0f, &rng);
  const Matrix& out = net.Forward(input);
  Matrix grad_out(1, 2, 1.0f);
  (void)out;
  const Matrix grad_in = net.Backward(grad_out);
  ASSERT_EQ(grad_in.rows(), 1);
  ASSERT_EQ(grad_in.cols(), 3);

  // Finite difference on the input.
  auto scalar_out = [&](const Matrix& x) {
    const Matrix y = net.Predict(x);
    return static_cast<double>(y.At(0, 0)) + y.At(0, 1);
  };
  const float eps = 1e-3f;
  for (int c = 0; c < 3; ++c) {
    Matrix plus = input;
    plus.At(0, c) += eps;
    Matrix minus = input;
    minus.At(0, c) -= eps;
    const double fd = (scalar_out(plus) - scalar_out(minus)) / (2.0 * eps);
    EXPECT_NEAR(grad_in.At(0, c), fd, 2e-2);
  }
}

// BackwardParams skips only the first layer's input gradient: every
// parameter gradient keeps Backward's bits, for the Q-network trunk's ReLU
// layers and for the reward classifier's sigmoid net.
TEST(MlpTest, BackwardParamsMatchesBackwardBitForBit) {
  MlpConfig trunk;
  trunk.input_dim = 27;  // 2m + 3 at m = 12
  trunk.hidden_dims = {16};
  trunk.output_dim = 16;
  trunk.hidden_activation = Activation::kRelu;
  trunk.output_activation = Activation::kRelu;
  MlpConfig classifier;
  classifier.input_dim = 12;
  classifier.hidden_dims = {32};
  classifier.output_dim = 1;
  classifier.output_activation = Activation::kSigmoid;
  for (const MlpConfig& config : {trunk, classifier}) {
    Rng rng_a(31), rng_b(31), rng_data(37);
    Mlp with_input_grad(config, &rng_a);
    Mlp without(config, &rng_b);
    with_input_grad.ZeroGrad();
    without.ZeroGrad();
    // Two batches accumulate, as between two ZeroGrad calls.
    for (int batch = 0; batch < 2; ++batch) {
      const Matrix input =
          Matrix::RandomNormal(32, config.input_dim, 1.0f, &rng_data);
      const Matrix grad_output =
          Matrix::RandomNormal(32, config.output_dim, 1.0f, &rng_data);
      with_input_grad.Forward(input);
      const Matrix grad_input = with_input_grad.Backward(grad_output);
      EXPECT_EQ(grad_input.rows(), 32);
      EXPECT_EQ(grad_input.cols(), config.input_dim);
      without.Forward(input);
      without.BackwardParams(grad_output);
    }
    const std::vector<Matrix*> want = with_input_grad.Grads();
    const std::vector<Matrix*> got = without.Grads();
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_TRUE(got[i]->SameShape(*want[i]));
      EXPECT_EQ(std::memcmp(got[i]->data(), want[i]->data(),
                            sizeof(float) * got[i]->size()),
                0)
          << "gradient " << i << ", input dim " << config.input_dim;
    }
  }
}

TEST(MlpTest, PredictMatchesForward) {
  Rng rng(7);
  MlpConfig config;
  config.input_dim = 6;
  config.hidden_dims = {8, 8};
  config.output_dim = 2;
  Mlp net(config, &rng);
  const Matrix input = Matrix::RandomNormal(3, 6, 1.0f, &rng);
  const Matrix predicted = net.Predict(input);
  const Matrix& forwarded = net.Forward(input);
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 2; ++c) {
      EXPECT_FLOAT_EQ(predicted.At(r, c), forwarded.At(r, c));
    }
  }
}

TEST(MlpTest, SerializeDeserializeRoundTrip) {
  Rng rng(9);
  MlpConfig config;
  config.input_dim = 4;
  config.hidden_dims = {5};
  config.output_dim = 2;
  Mlp a(config, &rng);
  Mlp b(config, &rng);  // different random init
  const Matrix input = Matrix::RandomNormal(2, 4, 1.0f, &rng);
  EXPECT_TRUE(b.DeserializeParams(a.SerializeParams()));
  const Matrix ya = a.Predict(input);
  const Matrix yb = b.Predict(input);
  for (int c = 0; c < 2; ++c) EXPECT_FLOAT_EQ(ya.At(0, c), yb.At(0, c));
}

TEST(MlpTest, DeserializeRejectsWrongSize) {
  Rng rng(11);
  MlpConfig config;
  config.input_dim = 4;
  config.output_dim = 2;
  Mlp net(config, &rng);
  EXPECT_FALSE(net.DeserializeParams(std::vector<float>(3, 0.0f)));
}

TEST(MlpTest, CopyParamsFromMakesNetworksIdentical) {
  Rng rng(13);
  MlpConfig config;
  config.input_dim = 3;
  config.hidden_dims = {4};
  config.output_dim = 1;
  Mlp a(config, &rng);
  Mlp b(config, &rng);
  b.CopyParamsFrom(a);
  const Matrix input = Matrix::RandomNormal(1, 3, 1.0f, &rng);
  EXPECT_FLOAT_EQ(a.Predict(input).At(0, 0), b.Predict(input).At(0, 0));
}

TEST(OptimizerTest, AdamConvergesOnQuadratic) {
  Matrix w(1, 3, 4.0f);
  const Matrix target = Matrix::RowVector({1.0f, -2.0f, 0.5f});
  AdamOptimizer adam(0.1f);
  for (int step = 0; step < 500; ++step) {
    Matrix grad = w;
    grad.Sub(target);
    adam.Step({&w}, {&grad});
  }
  for (int c = 0; c < 3; ++c) EXPECT_NEAR(w.At(0, c), target.At(0, c), 1e-2f);
}

TEST(DuelingNetTest, AggregationIsZeroCenteredAdvantage) {
  // Adding a constant to all advantages must not change Q (the mean is
  // subtracted), which is the identifiability trick of dueling networks.
  Rng rng(15);
  DuelingNetConfig config;
  config.input_dim = 5;
  config.trunk_hidden = {6};
  config.num_actions = 3;
  DuelingNet net(config, &rng);
  const Matrix states = Matrix::RandomNormal(4, 5, 1.0f, &rng);
  const Matrix q = net.Predict(states);
  ASSERT_EQ(q.rows(), 4);
  ASSERT_EQ(q.cols(), 3);
}

TEST(DuelingNetTest, GradientMatchesFiniteDifference) {
  Rng rng(17);
  DuelingNetConfig config;
  config.input_dim = 4;
  config.trunk_hidden = {5};
  config.num_actions = 2;
  DuelingNet net(config, &rng);

  const Matrix states = Matrix::RandomNormal(2, 4, 1.0f, &rng);
  const Matrix target = Matrix::RandomNormal(2, 2, 1.0f, &rng);

  auto loss_fn = [&]() {
    const Matrix q = net.Predict(states);
    double loss = 0.0;
    for (int r = 0; r < 2; ++r) {
      for (int c = 0; c < 2; ++c) {
        const double d = q.At(r, c) - target.At(r, c);
        loss += 0.5 * d * d;
      }
    }
    return loss;
  };

  Matrix q = net.Forward(states);
  Matrix grad = q;
  grad.Sub(target);
  net.ZeroGrad();
  net.Backward(grad);

  const std::vector<Matrix*> params = net.Params();
  const std::vector<Matrix*> grads = net.Grads();
  const float eps = 1e-3f;
  int checked = 0;
  for (size_t p = 0; p < params.size(); ++p) {
    for (int idx = 0; idx < std::min(3, params[p]->size()); ++idx) {
      float& w = params[p]->data()[idx];
      const float original = w;
      w = original + eps;
      const double plus = loss_fn();
      w = original - eps;
      const double minus = loss_fn();
      w = original;
      const double fd = (plus - minus) / (2.0 * eps);
      // ReLU kinks make FD noisy; use a loose tolerance.
      EXPECT_NEAR(grads[p]->data()[idx], fd, 5e-2)
          << "param " << p << " index " << idx;
      ++checked;
    }
  }
  EXPECT_GT(checked, 10);
}

TEST(DuelingNetTest, ExtraRescaleLayerAddsParameters) {
  Rng rng(19);
  DuelingNetConfig base;
  base.input_dim = 4;
  base.trunk_hidden = {8};
  DuelingNetConfig popart = base;
  popart.extra_rescale_layer = true;
  DuelingNet net_base(base, &rng);
  DuelingNet net_popart(popart, &rng);
  EXPECT_GT(net_popart.NumParams(), net_base.NumParams());
}

TEST(DuelingNetTest, SerializeRoundTrip) {
  Rng rng(21);
  DuelingNetConfig config;
  config.input_dim = 3;
  config.trunk_hidden = {4};
  DuelingNet a(config, &rng);
  DuelingNet b(config, &rng);
  EXPECT_TRUE(b.DeserializeParams(a.SerializeParams()));
  const Matrix states = Matrix::RandomNormal(1, 3, 1.0f, &rng);
  const Matrix qa = a.Predict(states);
  const Matrix qb = b.Predict(states);
  for (int c = 0; c < 2; ++c) EXPECT_FLOAT_EQ(qa.At(0, c), qb.At(0, c));
}

TEST(DuelingNetTest, TrainsTowardTargets) {
  Rng rng(23);
  DuelingNetConfig config;
  config.input_dim = 3;
  config.trunk_hidden = {16};
  DuelingNet net(config, &rng);
  AdamOptimizer adam(3e-3f);
  const Matrix states = Matrix::RandomNormal(8, 3, 1.0f, &rng);
  const Matrix target = Matrix::RandomNormal(8, 2, 1.0f, &rng);

  double first_loss = 0.0;
  double last_loss = 0.0;
  for (int step = 0; step < 400; ++step) {
    Matrix q = net.Forward(states);
    Matrix grad = q;
    grad.Sub(target);
    double loss = grad.SquaredNorm();
    if (step == 0) first_loss = loss;
    last_loss = loss;
    for (int i = 0; i < grad.size(); ++i) grad.data()[i] *= 1.0f / 8;
    net.ZeroGrad();
    net.Backward(grad);
    adam.Step(net.Params(), net.Grads());
  }
  EXPECT_LT(last_loss, first_loss * 0.1);
}

}  // namespace
}  // namespace pafeat
