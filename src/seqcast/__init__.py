"""seqcast: daily close-price forecasting with a from-scratch stacked LSTM."""

__version__ = "0.1.0"
