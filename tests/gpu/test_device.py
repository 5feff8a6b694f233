"""Tests for the execution-device abstraction (repro.gpu.device)."""

import numpy as np
import pytest

from repro.gpu.device import Device, DeviceKind, get_device, split_batch


class TestDevice:
    def test_default_is_full_batch_gpu(self):
        device = Device()
        assert device.kind == DeviceKind.GPU_SIM
        assert device.is_parallel

    def test_cpu_chunks_one_sample_at_a_time(self):
        device = Device(DeviceKind.CPU)
        assert list(device.chunks(3)) == [(0, 1), (1, 2), (2, 3)]
        assert not device.is_parallel

    def test_gpu_single_chunk(self):
        assert list(Device().chunks(100)) == [(0, 100)]

    def test_explicit_chunk_size(self):
        device = Device(DeviceKind.GPU_SIM, chunk_size=40)
        assert list(device.chunks(100)) == [(0, 40), (40, 80), (80, 100)]
        assert not device.is_parallel

    def test_empty_batch(self):
        assert list(Device().chunks(0)) == []

    def test_describe(self):
        assert "vectorised" in Device().describe()
        assert "scalar" in Device(DeviceKind.CPU).describe()
        assert "chunked" in Device(DeviceKind.GPU_SIM, chunk_size=8).describe()


class TestGetDevice:
    @pytest.mark.parametrize("name", ["gpu", "gpu-sim", "cuda", "vectorized"])
    def test_gpu_aliases(self, name):
        assert get_device(name).kind == DeviceKind.GPU_SIM

    @pytest.mark.parametrize("name", ["cpu", "scalar", "loop"])
    def test_cpu_aliases(self, name):
        assert get_device(name).kind == DeviceKind.CPU

    def test_unknown_device(self):
        with pytest.raises(ValueError):
            get_device("tpu")


class TestSplitBatch:
    def test_covers_all_rows(self):
        matrix = np.arange(10).reshape(5, 2)
        chunks = list(split_batch(matrix, Device(DeviceKind.CPU)))
        assert len(chunks) == 5
        assert np.array_equal(np.vstack(chunks), matrix)

    def test_gpu_single_chunk(self):
        matrix = np.zeros((7, 3))
        chunks = list(split_batch(matrix, Device()))
        assert len(chunks) == 1
        assert chunks[0].shape == (7, 3)


class TestChunkEdgeCases:
    """Regression tests for the chunk-size edge cases fixed in the backend refactor."""

    def test_chunk_size_larger_than_batch_is_one_span(self):
        device = Device(DeviceKind.GPU_SIM, chunk_size=4096)
        assert list(device.chunks(100)) == [(0, 100)]
        assert device.num_launches(100) == 1

    def test_cpu_chunk_size_larger_than_batch(self):
        device = Device(DeviceKind.CPU, chunk_size=64)
        assert list(device.chunks(10)) == [(0, 10)]

    def test_zero_size_batch_yields_nothing(self):
        for device in (Device(), Device(DeviceKind.CPU), Device(chunk_size=7)):
            assert list(device.chunks(0)) == []
            assert device.num_launches(0) == 0

    def test_negative_batch_yields_nothing(self):
        assert list(Device().chunks(-5)) == []

    def test_negative_chunk_size_rejected(self):
        with pytest.raises(ValueError):
            Device(DeviceKind.GPU_SIM, chunk_size=-1)

    def test_split_batch_empty_matrix(self):
        matrix = np.zeros((0, 3), dtype=bool)
        assert list(split_batch(matrix, Device(DeviceKind.CPU))) == []

    def test_chunk_size_equal_to_batch(self):
        device = Device(DeviceKind.GPU_SIM, chunk_size=8)
        assert list(device.chunks(8)) == [(0, 8)]

    def test_num_launches_counts_spans(self):
        assert Device(DeviceKind.GPU_SIM, chunk_size=40).num_launches(100) == 3
        assert Device(DeviceKind.CPU).num_launches(5) == 5
