"""Checks of the calibration that scales the benchmark's times.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import threading
import unittest

import calibration


class CalibrationTest(unittest.TestCase):
    def test_reference_speed_scales_by_one(self):
        ref = calibration.REFERENCE_S
        self.assertEqual(calibration.scale(ref, ref), 1)
        self.assertEqual(calibration.scale(2 * ref, 2 * ref), 0.5)

    def test_reading_refuses_a_second_thread(self):
        stop = threading.Event()
        other = threading.Thread(target=stop.wait)
        other.start()
        try:
            with self.assertRaises(RuntimeError):
                calibration.reading()
        finally:
            stop.set()
            other.join()

    def test_reading_is_positive(self):
        self.assertGreater(calibration.reading(), 0)


if __name__ == "__main__":
    unittest.main()
